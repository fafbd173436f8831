package core

import (
	"errors"
	"testing"
	"time"

	"gqosm/internal/clockx"
	"gqosm/internal/faultx"
	"gqosm/internal/gara"
	"gqosm/internal/registry"
	"gqosm/internal/resource"
	"gqosm/internal/sla"
)

// newFaultBroker wires a minimal single-pool broker with a fault
// injector and a retry policy installed — the smallest stack that
// exercises the RM-facing call policy end to end.
func newFaultBroker(t *testing.T, clock clockx.Clock, inj *faultx.Injector, p RetryPolicy, rm RMAdapter) (*Broker, *gara.System) {
	t.Helper()
	pool := resource.NewPool("p", resource.Capacity{CPU: 26, MemoryMB: 10240, DiskGB: 200})
	g := gara.NewSystem()
	g.RegisterManager(gara.NewComputeManager(pool))
	reg := registry.New(clock)
	if _, err := reg.Register(registry.Service{
		Name:       "simulation",
		Properties: []registry.Property{registry.NumProp("cpu-nodes", 26)},
	}); err != nil {
		t.Fatal(err)
	}
	b, err := NewBroker(Config{
		Domain: "site-a",
		Clock:  clock,
		Plan: CapacityPlan{
			Guaranteed: resource.Capacity{CPU: 15, MemoryMB: 6144},
			Adaptive:   resource.Capacity{CPU: 6, MemoryMB: 2048},
			BestEffort: resource.Capacity{CPU: 5, MemoryMB: 2048},
		},
		Registry:      reg,
		GARA:          g,
		RM:            rm,
		ConfirmWindow: time.Hour,
		Faults:        inj,
		RMPolicy:      p,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(b.Close)
	return b, g
}

// collectDelays reads the backoff schedule a runner would use for
// retries 1..n of one call.
func collectDelays(r *policyRunner, n int) []time.Duration {
	out := make([]time.Duration, 0, n)
	for attempt := 1; attempt <= n; attempt++ {
		out = append(out, r.delay(attempt))
	}
	return out
}

// TestRetryBackoffSchedule is the table test for the backoff schedule:
// exponential doubling from Backoff, capped at 16×Backoff.
func TestRetryBackoffSchedule(t *testing.T) {
	clock := clockx.NewManual(t0)
	b, _ := newFaultBroker(t, clock, nil, RetryPolicy{}, nil)
	cases := []struct {
		name string
		p    RetryPolicy
		want []time.Duration
	}{
		{
			name: "zero backoff retries immediately",
			p:    RetryPolicy{Attempts: 4},
			want: []time.Duration{0, 0, 0, 0},
		},
		{
			name: "default cap is 16x base",
			p:    RetryPolicy{Attempts: 8, Backoff: 10 * time.Millisecond},
			want: []time.Duration{
				10 * time.Millisecond, 20 * time.Millisecond, 40 * time.Millisecond,
				80 * time.Millisecond, 160 * time.Millisecond, 160 * time.Millisecond,
				160 * time.Millisecond, 160 * time.Millisecond,
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := newPolicyRunner(b, tc.p)
			got := collectDelays(r, len(tc.want))
			for i, want := range tc.want {
				if got[i] != want {
					t.Errorf("retry %d: delay = %v, want %v (schedule %v)", i+1, got[i], want, got)
				}
			}
		})
	}
}

// TestRetryExhaustionSurfacesErrRMUnavailable: a site failing with
// transient injected errors burns the whole budget, the call reports
// ErrRMUnavailable, and the budget counters record each retry and the
// exhaustion.
func TestRetryExhaustionSurfacesErrRMUnavailable(t *testing.T) {
	clock := clockx.NewManual(t0)
	inj := faultx.New(1, clock)
	inj.SetPlan("test.op", faultx.Plan{Rate: 1, Kinds: []faultx.Kind{faultx.KindError}})
	b, _ := newFaultBroker(t, clock, inj, RetryPolicy{Attempts: 3}, nil)

	ran := 0
	err := b.pol.call("test.op", func() error { ran++; return nil })
	if !errors.Is(err, ErrRMUnavailable) {
		t.Fatalf("err = %v, want ErrRMUnavailable", err)
	}
	if ran != 0 {
		t.Errorf("op ran %d time(s) through KindError faults, want 0", ran)
	}
	retries, _, unavailable := b.RetryStats()
	if retries != 2 {
		t.Errorf("retries = %d, want 2 (attempts 2 and 3)", retries)
	}
	if unavailable != 1 {
		t.Errorf("unavailable = %d, want 1", unavailable)
	}
}

// TestRetryBusinessErrorPassesThrough: definitive answers (a canceled
// reservation, a full allocator) are not transient — they return on the
// attempt that produced them, with no retries burned.
func TestRetryBusinessErrorPassesThrough(t *testing.T) {
	clock := clockx.NewManual(t0)
	b, _ := newFaultBroker(t, clock, nil, RetryPolicy{Attempts: 5}, nil)

	ran := 0
	err := b.pol.call("test.op", func() error { ran++; return gara.ErrUnknownHandle })
	if !errors.Is(err, gara.ErrUnknownHandle) {
		t.Fatalf("err = %v, want the business error itself", err)
	}
	if errors.Is(err, ErrRMUnavailable) {
		t.Fatal("business error misreported as RM unavailability")
	}
	if ran != 1 {
		t.Errorf("op ran %d time(s), want exactly 1", ran)
	}
	if retries, _, _ := b.RetryStats(); retries != 0 {
		t.Errorf("retries = %d, want 0", retries)
	}
}

// TestRetryHangChargesTimeout: a synchronous hang-until-deadline fault
// counts as a timed-out attempt and charges the full per-attempt
// deadline to the virtual latency accounting, keeping "p95 under
// faults" deterministic on a manual clock.
func TestRetryHangChargesTimeout(t *testing.T) {
	clock := clockx.NewManual(t0)
	inj := faultx.New(1, clock)
	inj.SetPlan("test.op", faultx.Plan{Rate: 1, Kinds: []faultx.Kind{faultx.KindHang}})
	b, _ := newFaultBroker(t, clock, inj, RetryPolicy{Attempts: 2, Timeout: 2 * time.Second}, nil)

	err := b.pol.call("test.op", func() error { return nil })
	if !errors.Is(err, ErrRMUnavailable) {
		t.Fatalf("err = %v, want ErrRMUnavailable", err)
	}
	if _, timeouts, _ := b.RetryStats(); timeouts != 2 {
		t.Errorf("timeouts = %d, want 2", timeouts)
	}
	if got := inj.VirtualP95MS(); got != 2000 {
		t.Errorf("virtual p95 = %vms, want 2000 (the charged deadline)", got)
	}
}

// TestCallCreateAdoptsCommittedReservation: a retried two-phase create
// whose first reply was lost must find the committed reservation by its
// idempotency tag and adopt it — the create function must not run
// again.
func TestCallCreateAdoptsCommittedReservation(t *testing.T) {
	clock := clockx.NewManual(t0)
	b, g := newFaultBroker(t, clock, nil, RetryPolicy{Attempts: 3}, nil)

	committed, err := g.Create(`&(reservation-type="compute")(count=1)`, t0, t5, "sla-42")
	if err != nil {
		t.Fatal(err)
	}
	h, err := b.pol.callCreate("gara.create", "sla-42", func() (gara.Handle, error) {
		t.Fatal("create ran despite a live reservation with the tag")
		return "", nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if h != committed {
		t.Fatalf("adopted handle %s, want %s", h, committed)
	}
}

// TestCallCreateNeverDoubleCommits: under a 100% partial-failure plan
// (every create commits, every reply is lost) a budgeted callCreate
// fails — but leaves exactly ONE committed reservation behind, because
// the retry consulted the tag before re-creating. Once the fault
// clears, the next call adopts that same reservation.
func TestCallCreateNeverDoubleCommits(t *testing.T) {
	clock := clockx.NewManual(t0)
	inj := faultx.New(1, clock)
	inj.SetPlan("gara.create", faultx.Plan{Rate: 1, Kinds: []faultx.Kind{faultx.KindPartial}})
	b, g := newFaultBroker(t, clock, inj, RetryPolicy{Attempts: 3}, nil)

	create := func() (gara.Handle, error) {
		return g.Create(`&(reservation-type="compute")(count=1)`, t0, t5, "sla-7")
	}
	if _, err := b.pol.callCreate("gara.create", "sla-7", create); !errors.Is(err, ErrRMUnavailable) {
		t.Fatalf("err = %v, want ErrRMUnavailable under 100%% reply loss", err)
	}
	countLive := func() int {
		n := 0
		for _, r := range g.Reservations() {
			if r.Tag == "sla-7" && r.Status != gara.StatusCanceled {
				n++
			}
		}
		return n
	}
	if n := countLive(); n != 1 {
		t.Fatalf("%d live reservation(s) tagged sla-7 after retries, want exactly 1", n)
	}

	inj.SetPlan("gara.create", faultx.Plan{})
	h, err := b.pol.callCreate("gara.create", "sla-7", func() (gara.Handle, error) {
		t.Fatal("create ran again instead of adopting")
		return "", nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if want, _ := g.FindByTag("sla-7"); h != want {
		t.Fatalf("adopted %s, want %s", h, want)
	}
	if n := countLive(); n != 1 {
		t.Fatalf("%d live reservation(s) after adoption, want 1", n)
	}
}

// blockedRM would stall the monitor forever if it were ever reached;
// the hang fault fires first, so reaching it at all is a test failure.
type blockedRM struct{ calls int }

func (r *blockedRM) TryRectify(sla.ID, *sla.Document, resource.Capacity) bool {
	r.calls++
	return true
}

// TestHungRMProbeDoesNotStallTick is the regression test for the
// monitor stall: a degradation callback probing a hung RM used to block
// the tick (and with it all expiry and optimizer work) forever. Under
// the per-attempt timeout the probe gives up after Timeout of wall
// clock and the scenario-3 ladder continues.
func TestHungRMProbeDoesNotStallTick(t *testing.T) {
	clock := clockx.Real()
	inj := faultx.New(1, clock)
	inj.SetPlan("rm.rectify", faultx.Plan{
		Rate: 1, Kinds: []faultx.Kind{faultx.KindHang}, BlockOnHang: true,
	})
	t.Cleanup(inj.ReleaseHangs)
	rm := &blockedRM{}
	b, _ := newFaultBroker(t, clock, inj, RetryPolicy{Attempts: 1, Timeout: 50 * time.Millisecond}, rm)

	offer, err := b.RequestService(Request{
		Service: "simulation", Client: "c", Class: sla.ClassGuaranteed,
		Spec:  sla.NewSpec(sla.Exact(resource.CPU, 10)),
		Start: clock.Now(), End: clock.Now().Add(5 * time.Hour),
	})
	if err != nil {
		t.Fatal(err)
	}
	id := offer.SLA.ID
	if err := b.Accept(id); err != nil {
		t.Fatal(err)
	}

	done := make(chan struct{})
	go func() {
		b.handleDegradation(id, resource.Nodes(6)) // the monitor/SLA-Verif path
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("degradation handling stalled on the hung RM probe")
	}

	if rm.calls != 0 {
		t.Errorf("RM adapter ran %d time(s) through a blocking hang", rm.calls)
	}
	if _, timeouts, _ := b.RetryStats(); timeouts == 0 {
		t.Error("hung probe not accounted as a call timeout")
	}
	if got := b.Violations(id); got == 0 {
		t.Error("adaptation ladder did not continue after the probe timed out")
	}
}
