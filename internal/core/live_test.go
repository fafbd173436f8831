package core

import (
	"errors"
	"fmt"
	"slices"
	"strconv"
	"testing"
	"time"
	"unsafe"

	"gqosm/internal/clockx"
	"gqosm/internal/gara"
	"gqosm/internal/registry"
	"gqosm/internal/resource"
	"gqosm/internal/sla"
)

// checkLiveSet reports the first place the live set and the session table
// disagree: live must hold exactly the table's non-terminal entries, as
// the same pointers, each once, in the slot its livePos names, and each
// session's top flag must be what holdsTop reads from its document.
func (b *Broker) checkLiveSet() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	for i, s := range b.live {
		id := s.doc.ID
		switch {
		case int(s.livePos) != i:
			return fmt.Errorf("live slot %d holds %s, whose livePos is %d", i, id, s.livePos)
		case s.doc.State.Terminal():
			return fmt.Errorf("live set holds %s, which is %s", id, s.doc.State)
		case b.sessions[id] != s:
			return fmt.Errorf("live set holds %s, which the session table does not hold as this session", id)
		case s.top != holdsTop(s.doc.Spec, s.doc.Allocated):
			return fmt.Errorf("live session %s has top %v for %v under %v", id, s.top, s.doc.Allocated, s.doc.Spec.Params)
		}
	}
	for id, s := range b.sessions {
		if s.doc.State.Terminal() {
			continue
		}
		if p := int(s.livePos); p >= len(b.live) || b.live[p] != s {
			return fmt.Errorf("live set misses %s, which is %s", id, s.doc.State)
		}
	}
	return nil
}

// assertLive checks the live set against the table and that it holds
// exactly want.
func assertLive(t *testing.T, b *Broker, want ...sla.ID) {
	t.Helper()
	if err := b.checkLiveSet(); err != nil {
		t.Fatal(err)
	}
	b.mu.Lock()
	got := make([]sla.ID, 0, len(b.live))
	for _, s := range b.live {
		got = append(got, s.doc.ID)
	}
	b.mu.Unlock()
	slices.Sort(got)
	slices.Sort(want)
	if !slices.Equal(got, want) {
		t.Fatalf("live set = %v, want %v", got, want)
	}
}

// TestLiveSetFollowsTheTable walks every way a session enters or leaves
// the broker that the lifecycle tests do not: the live set must follow
// the table's non-terminal entries through each.
func TestLiveSetFollowsTheTable(t *testing.T) {
	t.Run("offer lapse", func(t *testing.T) {
		h := newHarness(t)
		offer, err := h.broker.RequestService(guaranteedRequest())
		if err != nil {
			t.Fatal(err)
		}
		assertLive(t, h.broker, offer.SLA.ID)
		h.clock.Advance(3 * time.Minute) // past the 2 min confirm window
		if doc, _ := h.broker.Session(offer.SLA.ID); doc.State != sla.StateTerminated {
			t.Fatalf("lapsed offer is %s, want terminated", doc.State)
		}
		assertLive(t, h.broker)
	})
	t.Run("reject", func(t *testing.T) {
		h := newHarness(t)
		offer, err := h.broker.RequestService(guaranteedRequest())
		if err != nil {
			t.Fatal(err)
		}
		if err := h.broker.Reject(offer.SLA.ID); err != nil {
			t.Fatal(err)
		}
		assertLive(t, h.broker)
	})
	t.Run("compensation by termination", func(t *testing.T) {
		h := newHarness(t)
		b := h.broker
		victim := controlledRequest("victim")
		victim.Spec = sla.NewSpec(sla.Range(resource.CPU, 12, 14))
		victim.AcceptDegradation, victim.AcceptTermination, victim.PromotionOptIn = false, true, false
		v, err := b.RequestService(victim)
		if err != nil {
			t.Fatal(err)
		}
		if err := b.Accept(v.SLA.ID); err != nil {
			t.Fatal(err)
		}
		req := guaranteedRequest()
		req.Spec = sla.NewSpec(sla.Exact(resource.CPU, 10))
		offer, err := b.RequestService(req)
		if err != nil || !offer.Compensated {
			t.Fatalf("RequestService = %+v, %v; want an offer compensated by the victim", offer, err)
		}
		assertLive(t, b, offer.SLA.ID)
	})
	t.Run("crash and recover", func(t *testing.T) {
		h := newDurableHarness(t, 0)
		req := guaranteedRequest()
		req.Spec = sla.NewSpec(sla.Exact(resource.CPU, 2))
		var ids []sla.ID
		for range 3 {
			offer, err := h.broker.RequestService(req)
			if err != nil {
				t.Fatal(err)
			}
			ids = append(ids, offer.SLA.ID)
		}
		for _, id := range ids[:2] {
			if err := h.broker.Accept(id); err != nil {
				t.Fatal(err)
			}
		}
		if err := h.broker.Terminate(ids[0], "done"); err != nil {
			t.Fatal(err)
		}
		assertLive(t, h.broker, ids[1], ids[2])
		h.crashAndRecover(t)
		if doc, err := h.broker.Session(ids[0]); err != nil || doc.State != sla.StateTerminated {
			t.Fatalf("recovered terminal record = %+v, %v", doc, err)
		}
		assertLive(t, h.broker, ids[1], ids[2])
	})
	t.Run("hand-off import", func(t *testing.T) {
		src := newHandoffSide(t, "srcdom", 40)
		dst := domainBroker(t, "dstdom", "solver", 40)
		id := establishedSession(t, src.broker, 5)
		st, err := src.broker.BeginHandoff(id, "dstdom")
		if err != nil {
			t.Fatal(err)
		}
		if err := dst.ImportSession(st); err != nil {
			t.Fatal(err)
		}
		assertLive(t, dst, id)
		if err := src.broker.CompleteHandoff(id); err != nil {
			t.Fatal(err)
		}
		assertLive(t, src.broker)
	})
	t.Run("removal from the middle and the end", func(t *testing.T) {
		h := newHarness(t)
		b := h.broker
		req := guaranteedRequest()
		req.Spec = sla.NewSpec(sla.Exact(resource.CPU, 2))
		var ids []sla.ID
		for range 4 {
			offer, err := b.RequestService(req)
			if err != nil {
				t.Fatal(err)
			}
			if err := b.Accept(offer.SLA.ID); err != nil {
				t.Fatal(err)
			}
			ids = append(ids, offer.SLA.ID)
		}
		// The live set fills in admission order: ids[1] sits in the
		// middle, and the last slot is ids[3] until ids[1]'s slot takes
		// it; then ids[2] is the last.
		if err := b.Terminate(ids[1], "middle"); err != nil {
			t.Fatal(err)
		}
		assertLive(t, b, ids[0], ids[2], ids[3])
		if err := b.Terminate(ids[2], "end"); err != nil {
			t.Fatal(err)
		}
		assertLive(t, b, ids[0], ids[3])
		for _, id := range []sla.ID{ids[0], ids[3]} {
			if err := b.Terminate(id, "drain"); err != nil {
				t.Fatal(err)
			}
		}
		assertLive(t, b)
	})
	t.Run("repeated import of a live ID", func(t *testing.T) {
		src := newHandoffSide(t, "srcdom", 40)
		dst := domainBroker(t, "dstdom", "solver", 40)
		other := establishedSession(t, dst, 3)
		id := establishedSession(t, src.broker, 5)
		st, err := src.broker.BeginHandoff(id, "dstdom")
		if err != nil {
			t.Fatal(err)
		}
		// A second import of the same state arrives inside the first one's
		// window: both pass the "already live here" check, but the first
		// holds the ID's intent, so the second is refused.
		nested := false
		importTestHook = func(b *Broker) {
			if b != dst || nested {
				return
			}
			nested = true
			if err := dst.ImportSession(st); !errors.Is(err, ErrHandoffPending) {
				t.Errorf("racing import: err = %v, want ErrHandoffPending", err)
			}
		}
		defer func() { importTestHook = nil }()
		if err := dst.ImportSession(st); err != nil {
			t.Fatal(err)
		}
		if !nested {
			t.Fatal("the racing import never ran")
		}
		assertLive(t, dst, other, id)
		if n := dst.met.handoffsIn.Value(); n != 1 {
			t.Errorf("handoff_in counted %d imports, want 1", n)
		}
		tagged := 0
		for _, r := range dst.cfg.GARA.Reservations() {
			if r.Tag == string(id) && r.Status != gara.StatusCanceled {
				tagged++
			}
		}
		if tagged != 1 {
			t.Errorf("%d live reservations are tagged %s, want 1", tagged, id)
		}
		// A retried import after the first landed is the idempotent no-op.
		if err := dst.ImportSession(st); err != nil {
			t.Fatal(err)
		}
		assertLive(t, dst, other, id)
		if n := dst.met.handoffsIn.Value(); n != 1 {
			t.Errorf("handoff_in counted %d imports after the retry, want 1", n)
		}
	})
	t.Run("prune terminal", func(t *testing.T) {
		h := newHarness(t)
		b := h.broker
		req := guaranteedRequest()
		req.Spec = sla.NewSpec(sla.Exact(resource.CPU, 2))
		var ids []sla.ID
		for range 2 {
			offer, err := b.RequestService(req)
			if err != nil {
				t.Fatal(err)
			}
			if err := b.Accept(offer.SLA.ID); err != nil {
				t.Fatal(err)
			}
			ids = append(ids, offer.SLA.ID)
		}
		if err := b.Terminate(ids[0], "done"); err != nil {
			t.Fatal(err)
		}
		if n := b.PruneTerminal(); n != 1 {
			t.Fatalf("PruneTerminal removed %d sessions, want 1", n)
		}
		assertLive(t, b, ids[1])
	})
}

// TestSessionSize pins the session record to the 128-byte size class:
// livePos is an int32 beside the bools, where an int would have made it
// 136 bytes and every session 16 bytes heavier.
func TestSessionSize(t *testing.T) {
	if got := unsafe.Sizeof(session{}); got != 128 {
		t.Errorf("unsafe.Sizeof(session{}) = %d, want 128", got)
	}
}

// BenchmarkTerminateWithHistory times one Terminate — its clearing and
// the scenario-2 pass after it — with 8 live sessions and history
// terminal sessions resident. The per-event walks read the live set, so
// neither terminate-ns/op (the Terminate alone) nor ns/op (admit, accept
// and terminate the 8th live session) grows with history. The Terminate
// is timed by hand: stopping the benchmark timer round it reads the
// memory statistics, which stops the world, twice per iteration.
func BenchmarkTerminateWithHistory(b *testing.B) {
	for _, history := range []int{0, 1000, 10000} {
		b.Run(strconv.Itoa(history), func(b *testing.B) {
			clock := clockx.NewManual(t0)
			reg := registry.New(clock)
			if _, err := reg.Register(registry.Service{Name: "simulation", Provider: "site-a", Properties: simulationProps()}); err != nil {
				b.Fatal(err)
			}
			br := miniBroker(b, clock, reg)
			establish, guaranteed, controlled := allocGatePopulation(b, br)
			for range history {
				if err := br.Terminate(establish(guaranteed), "history"); err != nil {
					b.Fatal(err)
				}
			}
			for range 4 {
				establish(controlled)
			}
			for range 3 {
				establish(guaranteed)
			}
			// Each iteration admits the 8th live session, terminates it and
			// drops it from the table, so the resident history stays at
			// its size.
			var terminate time.Duration
			b.ResetTimer()
			for range b.N {
				id := establish(guaranteed)
				start := time.Now()
				if err := br.Terminate(id, "done"); err != nil {
					b.Fatal(err)
				}
				terminate += time.Since(start)
				br.mu.Lock()
				delete(br.sessions, id)
				br.mu.Unlock()
			}
			b.ReportMetric(float64(terminate.Nanoseconds())/float64(b.N), "terminate-ns/op")
		})
	}
}

// BenchmarkTerminateAtLive times one Terminate, its clearing and the
// scenario-2 pass after it, at 64 live sessions, 16 of them
// controlled-load. The victim holds memory only, which no controlled-load
// session can use. At best, every pass takes the §5.3 early exit; below
// best (one session short of its best, no nodes free) every pass runs the
// solve and gains nothing, which is what the early exit does not buy.
func BenchmarkTerminateAtLive(b *testing.B) {
	for _, row := range []struct {
		name      string
		belowBest bool
	}{{"at-best", false}, {"below-best", true}} {
		b.Run(row.name, func(b *testing.B) {
			br, establish, guaranteed, controlled := optimizerBroker(b)
			for range 15 {
				establish(controlled)
			}
			for range 46 {
				establish(guaranteed)
			}
			if row.belowBest {
				ballast(br, establish, guaranteed, 0.75) // the 16th gets 0.75 of its 1-node best
			} else {
				establish(guaranteed)
			}
			establish(controlled)
			victim := guaranteed
			victim.Spec = sla.NewSpec(sla.Exact(resource.MemoryMB, 128))
			solves := br.met.optimizerSolves.Value()
			var terminate time.Duration
			b.ResetTimer()
			for range b.N {
				id := establish(victim)
				start := time.Now()
				if err := br.Terminate(id, "done"); err != nil {
					b.Fatal(err)
				}
				terminate += time.Since(start)
				br.mu.Lock()
				delete(br.sessions, id) // the table stays at its size
				br.mu.Unlock()
			}
			b.StopTimer()
			if solved := br.met.optimizerSolves.Value() > solves; solved != row.belowBest {
				b.Fatalf("the release passes ran the solve: %v, want %v", solved, row.belowBest)
			}
			b.ReportMetric(float64(terminate.Nanoseconds())/float64(b.N), "terminate-ns/op")
		})
	}
}
