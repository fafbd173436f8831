package core

// Durability tests: crash the broker at interesting lifecycle points,
// Recover from the WAL directory against the surviving substrates, and
// check the rebuilt broker matches the dead one exactly — sessions,
// allocator book, best-effort table, ledger aggregates — then keeps
// operating (terminate drains the pool, re-armed confirm timers fire).

import (
	"encoding/json"
	"errors"
	"fmt"
	"slices"
	"testing"
	"time"

	"gqosm/internal/clockx"
	"gqosm/internal/faultx"
	"gqosm/internal/gara"
	"gqosm/internal/gram"
	"gqosm/internal/nrm"
	"gqosm/internal/pricing"
	"gqosm/internal/registry"
	"gqosm/internal/resource"
	"gqosm/internal/sla"
	"gqosm/internal/wal"
)

// durableHarness is newHarness plus a WAL directory and the Config kept
// around so tests can Crash the broker and Recover a replacement against
// the same (surviving) substrates.
type durableHarness struct {
	clock  *clockx.Manual
	cfg    Config
	broker *Broker
	pool   *resource.Pool
	g      *gara.System
	netMgr *nrm.Manager
	reg    *registry.Registry
	inj    *faultx.Injector
}

func newDurableHarness(t *testing.T, snapshotEvery int, mods ...func(*Config)) *durableHarness {
	t.Helper()
	clock := clockx.NewManual(t0)
	inj := faultx.New(1, clock)

	pool := resource.NewPool("sgi", resource.Capacity{CPU: 26, MemoryMB: 10240, DiskGB: 200, BandwidthMbps: 1100})
	topo := nrm.NewTopology()
	for _, d := range []struct{ name, cidr string }{
		{"site-a", "192.200.168.0/24"},
		{"site-c", "10.10.0.0/16"},
	} {
		if err := topo.AddDomain(d.name, d.cidr); err != nil {
			t.Fatal(err)
		}
	}
	if err := topo.AddLink("site-a", "site-c", 100); err != nil {
		t.Fatal(err)
	}
	netMgr := nrm.NewManager("site-a", topo)

	g := gara.NewSystem()
	g.RegisterManager(gara.NewComputeManager(pool))
	g.RegisterManager(gara.NewNetworkManager(netMgr))

	reg := registry.New(clock)
	if _, err := reg.Register(registry.Service{
		Name:     "simulation",
		Provider: "site-a",
		Properties: []registry.Property{
			registry.NumProp("cpu-nodes", 26),
			registry.NumProp("memory-mb", 10240),
			registry.NumProp("disk-gb", 200),
			registry.NumProp("bandwidth-mbps", 1000),
		},
	}); err != nil {
		t.Fatal(err)
	}

	gramM := gram.NewManager(clock)
	t.Cleanup(gramM.Close)

	cfg := Config{
		Domain: "site-a",
		Clock:  clock,
		Plan: CapacityPlan{
			Guaranteed: resource.Capacity{CPU: 15, MemoryMB: 6144, DiskGB: 120, BandwidthMbps: 700},
			Adaptive:   resource.Capacity{CPU: 6, MemoryMB: 2048, DiskGB: 40, BandwidthMbps: 200},
			BestEffort: resource.Capacity{CPU: 5, MemoryMB: 2048, DiskGB: 40, BandwidthMbps: 200},
		},
		Registry:      reg,
		GARA:          g,
		GRAM:          gramM,
		NRM:           netMgr,
		ConfirmWindow: 2 * time.Minute,
		Faults:        inj,
		RMPolicy:      RetryPolicy{Attempts: 2},
		Durability:    DurabilityConfig{Dir: t.TempDir(), SnapshotEvery: snapshotEvery},
	}
	for _, mod := range mods {
		mod(&cfg)
	}
	broker, err := NewBroker(cfg)
	if err != nil {
		t.Fatal(err)
	}
	h := &durableHarness{clock: clock, cfg: cfg, broker: broker, pool: pool, g: g, netMgr: netMgr, reg: reg, inj: inj}
	t.Cleanup(func() { h.broker.Close() })
	return h
}

// crashAndRecover kills the live broker and rebuilds its replacement
// from the WAL directory.
func (h *durableHarness) crashAndRecover(t *testing.T) *RecoverStats {
	t.Helper()
	h.broker.Crash()
	b, stats, err := Recover(h.cfg)
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	h.broker = b
	return stats
}

// brokerDigest is the comparable state image used to assert the
// recovered broker matches the dead one.
type brokerDigest struct {
	Sessions []SessionInfo
	Ledger   pricing.State
}

func digest(b *Broker) brokerDigest {
	var st pricing.State
	b.Ledger().ExportWith(func(s pricing.State) { st = s })
	return brokerDigest{Sessions: b.SessionInfos(), Ledger: st}
}

func mustJSON(t *testing.T, v any) string {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// TestRecoverRoundTrip: a broker with an active session, an accepted
// session, a still-open proposal and a best-effort grant crashes; the
// recovered broker carries identical state and keeps operating — the
// active session terminates cleanly and the re-armed confirm timer
// expires the proposal on schedule.
func TestRecoverRoundTrip(t *testing.T) {
	h := newDurableHarness(t, 0)
	b := h.broker

	// Session 1: all the way to Active.
	o1, err := b.RequestService(guaranteedRequest())
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Accept(o1.SLA.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Invoke(o1.SLA.ID); err != nil {
		t.Fatal(err)
	}
	// Session 2: Established.
	o2, err := b.RequestService(controlledRequest("site-b-lab"))
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Accept(o2.SLA.ID); err != nil {
		t.Fatal(err)
	}
	// Session 3: still Proposed when the broker dies.
	o3, err := b.RequestService(controlledRequest("site-c-students"))
	if err != nil {
		t.Fatal(err)
	}
	// Best-effort grant.
	if err := b.BestEffortRequest("be-user", resource.Capacity{CPU: 2}); err != nil {
		t.Fatal(err)
	}
	// Half of session 3's confirm window elapses before the crash.
	h.clock.Advance(time.Minute)

	pre := digest(b)
	preUse := h.pool.InUse(h.clock.Now())

	stats := h.crashAndRecover(t)
	b = h.broker
	if stats.Sessions != 3 {
		t.Fatalf("recovered %d sessions, want 3", stats.Sessions)
	}
	if stats.Adopted != 0 || stats.Refunded != 0 {
		t.Errorf("clean crash reconciled adopt=%d refund=%d, want 0/0", stats.Adopted, stats.Refunded)
	}
	if got, want := mustJSON(t, digest(b)), mustJSON(t, pre); got != want {
		t.Fatalf("recovered digest differs:\n got %s\nwant %s", got, want)
	}
	if got := h.pool.InUse(h.clock.Now()); !got.Equal(preUse) {
		t.Errorf("pool in use after recovery = %v, want %v", got, preUse)
	}

	// The recovered broker keeps operating: terminate the active session.
	if err := b.Terminate(o1.SLA.ID, "done"); err != nil {
		t.Fatalf("Terminate after recovery: %v", err)
	}
	doc, _ := b.Session(o1.SLA.ID)
	if doc.State != sla.StateTerminated {
		t.Errorf("state after terminate = %v", doc.State)
	}
	if err := b.Terminate(o2.SLA.ID, "done"); err != nil {
		t.Fatalf("Terminate session 2 after recovery: %v", err)
	}
	// The best-effort grant survived and releases cleanly.
	if err := b.BestEffortRelease("be-user"); err != nil {
		t.Errorf("BestEffortRelease after recovery: %v", err)
	}
	// The proposal's confirm timer was re-armed with the REMAINING
	// window: one of its two minutes elapsed pre-crash, so one more
	// minute expires it (a full-window re-arm would need two).
	h.clock.Advance(time.Minute + time.Second)
	doc, err = b.Session(o3.SLA.ID)
	if err != nil {
		t.Fatal(err)
	}
	if doc.State != sla.StateTerminated {
		t.Errorf("proposal state after confirm window = %v, want Terminated", doc.State)
	}
	if got := h.pool.InUse(h.clock.Now()).CPU; got != 0 {
		t.Errorf("pool CPU after full drain = %g, want 0", got)
	}
}

// TestRecoverRearmsConfirmTimersInProposalOrder: one group commit
// proposes its offers at one instant, so their confirm deadlines tie.
// After a kill they must still expire in proposal order, as on the dead
// broker; the manual clock fires ties in arming order, and arming in
// session-map order made the chaos replay differ from run to run.
func TestRecoverRearmsConfirmTimersInProposalOrder(t *testing.T) {
	h := newDurableHarness(t, 0)
	// Map order is random per run, so a few rounds make a pass by luck
	// unlikely.
	for round := range 3 {
		tickets := make([]*IntakeTicket, 6)
		for i := range tickets {
			tk, err := h.broker.Submit(intakeRequest(fmt.Sprintf("order-%d-%d", round, i)))
			if err != nil {
				t.Fatal(err)
			}
			tickets[i] = tk
		}
		h.broker.FlushIntake()
		var want []sla.ID
		for _, tk := range tickets {
			offer, err := tk.Wait()
			if err != nil {
				t.Fatal(err)
			}
			want = append(want, offer.SLA.ID)
		}

		h.crashAndRecover(t)
		h.clock.Advance(h.cfg.ConfirmWindow + time.Minute)
		var got []sla.ID
		for _, ev := range h.broker.Events() {
			if ev.Kind == "clearing" {
				got = append(got, ev.SLA)
			}
		}
		if !slices.Equal(got, want) {
			t.Fatalf("round %d: offers expired in order %v, want proposal order %v", round, got, want)
		}
	}
}

// TestRecoverServesEveryJournaledSession: the session table rebuilt from
// the WAL is the SLA repository — after Recover every journaled session
// that was not pruned, the terminal ones included, is served by Session
// with the document it had at the crash, and a pruned one stays unknown.
func TestRecoverServesEveryJournaledSession(t *testing.T) {
	for _, snapshotEvery := range []int{0, 4} {
		h := newDurableHarness(t, snapshotEvery)
		b := h.broker
		establish := func(req Request) sla.ID {
			t.Helper()
			o, err := b.RequestService(req)
			if err != nil {
				t.Fatal(err)
			}
			if err := b.Accept(o.SLA.ID); err != nil {
				t.Fatal(err)
			}
			return o.SLA.ID
		}
		pruned := establish(controlledRequest("tenant-pruned"))
		if err := b.Terminate(pruned, "finished early"); err != nil {
			t.Fatal(err)
		}
		if got := b.PruneTerminal(); got != 1 {
			t.Fatalf("PruneTerminal = %d, want 1", got)
		}
		terminated := establish(controlledRequest("tenant-done"))
		if err := b.Terminate(terminated, "finished"); err != nil {
			t.Fatal(err)
		}
		stale, err := b.RequestService(controlledRequest("tenant-stale"))
		if err != nil {
			t.Fatal(err)
		}
		h.clock.Advance(3 * time.Minute) // past the confirm window
		b.ExpireDue()
		active := establish(guaranteedRequest())
		if _, err := b.Invoke(active); err != nil {
			t.Fatal(err)
		}
		established := establish(controlledRequest("tenant-waiting"))
		proposed, err := b.RequestService(controlledRequest("tenant-undecided"))
		if err != nil {
			t.Fatal(err)
		}

		ids := []sla.ID{terminated, stale.SLA.ID, active, established, proposed.SLA.ID}
		want := map[sla.ID]string{}
		terminal := 0
		for _, id := range ids {
			doc, err := b.Session(id)
			if err != nil {
				t.Fatalf("Session(%s) before the crash: %v", id, err)
			}
			if doc.State.Terminal() {
				terminal++
			}
			want[id] = mustJSON(t, doc)
		}
		if terminal != 2 {
			t.Fatalf("%d terminal sessions before the crash, want 2", terminal)
		}

		h.crashAndRecover(t)
		for _, id := range ids {
			doc, err := h.broker.Session(id)
			if err != nil {
				t.Errorf("snapshotEvery=%d: Session(%s) after Recover: %v", snapshotEvery, id, err)
				continue
			}
			if got := mustJSON(t, doc); got != want[id] {
				t.Errorf("snapshotEvery=%d: %s after Recover:\n got %s\nwant %s", snapshotEvery, id, got, want[id])
			}
		}
		if _, err := h.broker.Session(pruned); !errors.Is(err, ErrUnknownSession) {
			t.Errorf("snapshotEvery=%d: pruned Session(%s) after Recover: %v, want ErrUnknownSession", snapshotEvery, pruned, err)
		}
	}
}

// TestRecoverLedgerAggregatesExact is the double-billing regression:
// with a snapshot landing mid-workload, ledger entries recorded before
// the snapshot appear in BOTH the snapshot image and the log suffix
// written earlier. Replay must apply an entry exactly once —
// the recovered aggregates are byte-identical to the crashed broker's.
// The bounded-retention inputs hold replay to the live rule: Record lets
// the list grow to twice the cap before cutting it back, so the crashed
// broker holds more than the cap and recovery must too.
func TestRecoverLedgerAggregatesExact(t *testing.T) {
	type input struct{ snapshotEvery, retain int }
	inputs := []input{{6, 0}}
	for every := 3; every <= 8; every++ {
		inputs = append(inputs, input{every, 2})
	}
	for _, in := range inputs {
		t.Run(fmt.Sprintf("every=%d/retain=%d", in.snapshotEvery, in.retain), func(t *testing.T) {
			h := newDurableHarness(t, in.snapshotEvery) // snapshots land mid-workload
			b := h.broker
			b.Ledger().SetRetention(in.retain)

			// Six charges, and a refund for each of the first three.
			for i, client := range []string{"c1", "c2", "c3", "c4", "c5", "c6"} {
				o, err := b.RequestService(controlledRequest(client))
				if err != nil {
					t.Fatal(err)
				}
				if err := b.Accept(o.SLA.ID); err != nil {
					t.Fatal(err)
				}
				if i < 3 {
					if err := b.Terminate(o.SLA.ID, "early exit"); err != nil {
						t.Fatal(err)
					}
				}
			}
			if _, _, snaps := b.WALStats(); snaps == 0 {
				t.Fatal("test needs a snapshot mid-workload; none landed — lower SnapshotEvery")
			}

			var pre pricing.State
			b.Ledger().ExportWith(func(s pricing.State) { pre = s })
			if in.retain == 0 && len(pre.Entries) < 4 {
				t.Fatalf("workload produced %d ledger entries, want >= 4", len(pre.Entries))
			}
			if in.retain > 0 && (pre.Evicted == 0 || len(pre.Entries) <= in.retain) {
				t.Fatalf("retention case holds %d entries, %d evicted: want some evicted and more than %d held",
					len(pre.Entries), pre.Evicted, in.retain)
			}

			h.crashAndRecover(t)
			var post pricing.State
			h.broker.Ledger().ExportWith(func(s pricing.State) { post = s })
			if got, want := mustJSON(t, post), mustJSON(t, pre); got != want {
				t.Fatalf("ledger state after recovery differs (double/dropped billing or retention):\n got %s\nwant %s", got, want)
			}
		})
	}
}

// TestReconcileGatedDuringRecovery is the monitor-race regression
// (satellite 3): the broker crashes with a parked teardown outstanding;
// a monitor tick that fires mid-recovery (between state install and the
// recovery sweep) must not race the sweep — ReconcileReservations
// returns 0 until recovery completes, and the recovery sweep itself
// clears the parked cancel exactly once.
func TestReconcileGatedDuringRecovery(t *testing.T) {
	h := newDurableHarness(t, 0)
	b := h.broker

	o, err := b.RequestService(guaranteedRequest())
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Accept(o.SLA.ID); err != nil {
		t.Fatal(err)
	}
	// Terminate against an unavailable RM: the cancel parks.
	h.inj.SetPlan("gara.cancel", faultx.Plan{Rate: 1, Kinds: []faultx.Kind{faultx.KindError}})
	if err := b.Terminate(o.SLA.ID, "client done"); err != nil {
		t.Fatal(err)
	}
	if live := liveReservations(h.g); live != 1 {
		t.Fatalf("parked teardown should leave 1 live reservation, have %d", live)
	}
	// RM comes back before the restart.
	h.inj.SetPlan("gara.cancel", faultx.Plan{})

	ticked := false
	recoverTestHook = func(rb *Broker) {
		ticked = true
		if n := rb.ReconcileReservations(); n != 0 {
			t.Errorf("ReconcileReservations mid-recovery cleared %d, want 0 (gated)", n)
		}
	}
	defer func() { recoverTestHook = nil }()

	stats := h.crashAndRecover(t)
	if !ticked {
		t.Fatal("recovery hook never ran")
	}
	if stats.ParkedCleared != 1 {
		t.Errorf("recovery sweep cleared %d parked cancel(s), want 1", stats.ParkedCleared)
	}
	if live := liveReservations(h.g); live != 0 {
		t.Errorf("%d live reservation(s) after recovery sweep, want 0", live)
	}
	// The gate lifts with recovery: a normal tick works again.
	if n := h.broker.ReconcileReservations(); n != 0 {
		t.Errorf("post-recovery reconcile cleared %d, want 0 (nothing parked)", n)
	}
}

func liveReservations(g *gara.System) int {
	n := 0
	for _, r := range g.Reservations() {
		if r.Status != gara.StatusCanceled {
			n++
		}
	}
	return n
}

// TestRecoverRefundsOrphanReservation: a reservation committed to the
// GARA under this domain's SLA tag with no journaled session (the
// broker died between the RM commit and the WAL append) is refunded by
// the reconcile sweep; the live session's reservation is untouched.
func TestRecoverRefundsOrphanReservation(t *testing.T) {
	h := newDurableHarness(t, 0)
	b := h.broker

	o, err := b.RequestService(guaranteedRequest())
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Accept(o.SLA.ID); err != nil {
		t.Fatal(err)
	}
	b.Crash()

	// The half-committed orphan: tagged like this domain's SLAs, but no
	// session ever journaled for it.
	orphan, err := h.g.Create(`&(reservation-type="compute")(count=2)`, t0, t5, "site-a-sla-9999")
	if err != nil {
		t.Fatal(err)
	}
	// A foreign-domain reservation must NOT be touched.
	foreign, err := h.g.Create(`&(reservation-type="compute")(count=1)`, t0, t5, "site-b-sla-0001")
	if err != nil {
		t.Fatal(err)
	}

	nb, stats, err := Recover(h.cfg)
	if err != nil {
		t.Fatal(err)
	}
	h.broker = nb
	if stats.Refunded != 1 {
		t.Errorf("refunded = %d, want 1", stats.Refunded)
	}
	if r, _ := h.g.Get(orphan); r.Status != gara.StatusCanceled {
		t.Errorf("orphan status = %v, want canceled", r.Status)
	}
	if r, _ := h.g.Get(foreign); r.Status == gara.StatusCanceled {
		t.Error("foreign-domain reservation was refunded")
	}
	// The live session's reservation survived and still tears down.
	if err := nb.Terminate(o.SLA.ID, "done"); err != nil {
		t.Fatal(err)
	}
	if live := liveReservations(h.g); live != 1 { // only the foreign one
		t.Errorf("live reservations after drain = %d, want 1 (foreign)", live)
	}
}

// TestRecoverAdoptsCommittedReservation: the session's journaled handle
// no longer names a live reservation (it was canceled RM-side and the
// RM re-committed under the same tag — the late-side-effect shape the
// tag-adoption path exists for). Recovery re-attaches the live
// reservation by SLA tag so teardown releases real capacity.
func TestRecoverAdoptsCommittedReservation(t *testing.T) {
	h := newDurableHarness(t, 0)
	b := h.broker

	o, err := b.RequestService(guaranteedRequest())
	if err != nil {
		t.Fatal(err)
	}
	id := o.SLA.ID
	if err := b.Accept(id); err != nil {
		t.Fatal(err)
	}
	doc, _ := b.Session(id)
	b.Crash()

	// Simulate the RM-side swap: the journaled handle dies, a
	// replacement committed under the same tag lives on.
	var oldHandle gara.Handle
	for _, r := range h.g.Reservations() {
		if r.Tag == string(id) && r.Status != gara.StatusCanceled {
			oldHandle = r.Handle
		}
	}
	if oldHandle == "" {
		t.Fatal("no live reservation for the session")
	}
	if err := h.g.Cancel(oldHandle); err != nil {
		t.Fatal(err)
	}
	replacement, err := h.g.Create(`&(reservation-type="compute")(count=10)`, doc.Start, doc.End, string(id))
	if err != nil {
		t.Fatal(err)
	}

	nb, stats, err := Recover(h.cfg)
	if err != nil {
		t.Fatal(err)
	}
	h.broker = nb
	if stats.Adopted != 1 {
		t.Errorf("adopted = %d, want 1", stats.Adopted)
	}
	// Teardown must cancel the ADOPTED handle.
	if err := nb.Terminate(id, "done"); err != nil {
		t.Fatal(err)
	}
	if r, _ := h.g.Get(replacement); r.Status != gara.StatusCanceled {
		t.Errorf("adopted reservation not canceled on terminate: %v", r.Status)
	}
}

// TestRecoverRejectsOccupiedDirOnNewBroker: NewBroker refuses a WAL
// directory that already holds state — silently journaling over a dead
// broker's log would orphan its sessions.
func TestRecoverRejectsOccupiedDirOnNewBroker(t *testing.T) {
	h := newDurableHarness(t, 0)
	if _, err := h.broker.RequestService(guaranteedRequest()); err != nil {
		t.Fatal(err)
	}
	h.broker.Crash()
	if _, err := NewBroker(h.cfg); err == nil {
		t.Fatal("NewBroker accepted a WAL directory with existing state")
	}
	if _, _, err := Recover(h.cfg); err != nil {
		t.Fatalf("Recover on the same directory: %v", err)
	}
}

// TestCrashPointMatrix (satellite 4, core slice): inject a WAL fault at
// each journaling site in turn, drive the workload until the log seals
// (the modeled crash point), then Crash + Recover and check the
// recovered broker is internally coherent — every recovered non-terminal
// session's allocation matches its document and teardown drains the
// pool. The sim-level matrix runs the full invariant oracle; this one
// covers the wal.append/wal.sync sites at unit scope.
func TestCrashPointMatrix(t *testing.T) {
	for _, site := range []string{"wal.append", "wal.sync"} {
		for _, after := range []int{0, 3, 7} {
			t.Run(site+"/"+string(rune('0'+after)), func(t *testing.T) {
				h := newDurableHarness(t, 4)
				b := h.broker
				clients := []string{"c1", "c2", "c3", "c4"}
				var ids []sla.ID
				step := 0
				for _, c := range clients {
					if step == after {
						h.inj.SetPlan(site, faultx.Plan{Rate: 1, Kinds: []faultx.Kind{faultx.KindError}})
					}
					step++
					o, err := b.RequestService(controlledRequest(c))
					if err != nil {
						continue
					}
					ids = append(ids, o.SLA.ID)
					if err := b.Accept(o.SLA.ID); err != nil {
						t.Fatal(err)
					}
				}
				if after < len(clients) {
					if _, err := b.durable.Append(wal.Record{Op: "probe"}); !errors.Is(err, wal.ErrSealed) {
						t.Fatalf("fault plan never sealed the log: Append err = %v", err)
					}
				}
				h.inj.SetPlan(site, faultx.Plan{})

				stats := h.crashAndRecover(t)
				nb := h.broker
				// Every recovered session is coherent: doc state legal,
				// terminal sessions hold nothing.
				for _, info := range nb.SessionInfos() {
					doc, err := nb.Session(info.ID)
					if err != nil {
						t.Fatalf("recovered session %s unreadable: %v", info.ID, err)
					}
					if doc.State == sla.StateProposed && info.ProposedAt.IsZero() {
						t.Errorf("%s proposed without a timestamp", info.ID)
					}
				}
				// Recovery reconciles capacity: drain everything and the
				// pool must return to empty (adopted/refunded handles
				// included).
				for _, info := range nb.SessionInfos() {
					doc, _ := nb.Session(info.ID)
					if doc.State.Terminal() {
						continue
					}
					if doc.State == sla.StateProposed {
						if err := nb.Reject(info.ID); err != nil {
							t.Fatalf("reject %s: %v", info.ID, err)
						}
					} else if err := nb.Terminate(info.ID, "drain"); err != nil {
						t.Fatalf("terminate %s: %v", info.ID, err)
					}
				}
				nb.ReconcileReservations()
				if live := liveReservations(h.g); live != 0 {
					t.Errorf("crash@%s after %d ops: %d reservation(s) leaked (stats %+v, sessions %v)",
						site, after, live, stats, ids)
				}
				if use := h.pool.InUse(h.clock.Now()); use.CPU != 0 {
					t.Errorf("pool CPU after drain = %g, want 0", use.CPU)
				}
			})
		}
	}
}
