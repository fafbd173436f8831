package core

import (
	"fmt"
	"slices"
	"strconv"
	"testing"
	"time"

	"gqosm/internal/clockx"
	"gqosm/internal/registry"
	"gqosm/internal/resource"
	"gqosm/internal/sla"
)

// checkLiveSet reports the first place the live set and the session table
// disagree: live must hold exactly the table's non-terminal entries, as
// the same pointers.
func (b *Broker) checkLiveSet() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	for id, s := range b.sessions {
		l, in := b.live[id]
		switch terminal := s.doc.State.Terminal(); {
		case terminal && in:
			return fmt.Errorf("live set holds %s, which is %s", id, s.doc.State)
		case !terminal && !in:
			return fmt.Errorf("live set misses %s, which is %s", id, s.doc.State)
		case in && l != s:
			return fmt.Errorf("live set holds another session value for %s", id)
		}
	}
	for id := range b.live {
		if _, ok := b.sessions[id]; !ok {
			return fmt.Errorf("live set holds %s, which the session table does not", id)
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
	for id := range b.live {
		got = append(got, id)
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
