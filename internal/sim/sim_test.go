package sim

import (
	"strings"
	"testing"
	"time"

	"gqosm/internal/core"
	"gqosm/internal/resource"
	"gqosm/internal/sla"
	"gqosm/internal/stack"
)

func TestClusterAssembles(t *testing.T) {
	topo, err := e56Topology()
	if err != nil {
		t.Fatal(err)
	}
	cl, err := NewCluster(stack.Config{Plan: paperPlan(26), Topology: topo})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if cl.Broker == nil || cl.NRM == nil {
		t.Fatal("cluster incomplete")
	}
	// The default service is discoverable.
	req := core.Request{
		Service: "simulation", Client: "c", Class: sla.ClassGuaranteed,
		Spec:  sla.NewSpec(sla.Exact(resource.CPU, 4)),
		Start: Epoch, End: Epoch.Add(time.Hour),
	}
	if _, err := cl.Broker.RequestService(req); err != nil {
		t.Fatalf("RequestService on cluster: %v", err)
	}
	// MDS reports live pool state under the domain's name.
	attrs, err := cl.MDS.Query("site-a")
	if err != nil {
		t.Fatal(err)
	}
	if attrs["cpu-total"] != "26" {
		t.Errorf("cpu-total = %v", attrs)
	}
}

func TestWorkloadTraceDeterministic(t *testing.T) {
	wl := Workload{Seed: 7, ArrivalPerHour: 10, Duration: 24 * time.Hour,
		GuaranteedFrac: 0.3, ControlledFrac: 0.3, MaxNodes: 8}
	a := wl.Trace()
	b := wl.Trace()
	if len(a) == 0 {
		t.Fatal("empty trace")
	}
	if len(a) != len(b) {
		t.Fatalf("non-deterministic length %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("trace diverges at %d: %+v vs %+v", i, a[i], b[i])
		}
	}
	// Expect roughly λ·T arrivals (±50%).
	if len(a) < 120 || len(a) > 360 {
		t.Errorf("arrival count %d implausible for λ=10/h over 24h", len(a))
	}
	classes := map[sla.Class]int{}
	for _, arr := range a {
		classes[arr.Class]++
		if arr.Nodes < 1 || arr.Nodes > 8 {
			t.Fatalf("nodes out of range: %v", arr.Nodes)
		}
		if arr.Hold < time.Minute {
			t.Fatalf("hold too short: %v", arr.Hold)
		}
	}
	for _, c := range []sla.Class{sla.ClassGuaranteed, sla.ClassControlledLoad, sla.ClassBestEffort} {
		if classes[c] == 0 {
			t.Errorf("class %v absent from trace", c)
		}
	}
}

func TestReplayConservesAccounting(t *testing.T) {
	wl := Workload{Seed: 3, ArrivalPerHour: 12, Duration: 48 * time.Hour,
		GuaranteedFrac: 0.4, ControlledFrac: 0.2, MaxNodes: 6}
	trace := wl.Trace()
	policy, err := NewAdaptivePolicy(paperPlan(26))
	if err != nil {
		t.Fatal(err)
	}
	stats := Replay(trace, policy, nil)
	if stats.Arrivals != len(trace) {
		t.Errorf("arrivals = %d, want %d", stats.Arrivals, len(trace))
	}
	if stats.Admitted+stats.Rejected != stats.Arrivals {
		t.Errorf("admitted %d + rejected %d != arrivals %d",
			stats.Admitted, stats.Rejected, stats.Arrivals)
	}
	if stats.MeanUtilization <= 0 || stats.MeanUtilization > 1 {
		t.Errorf("MeanUtilization = %g", stats.MeanUtilization)
	}
	total := 0
	for _, n := range stats.AdmittedByClass {
		total += n
	}
	if total != stats.Admitted {
		t.Errorf("class admission breakdown %d != %d", total, stats.Admitted)
	}
	// After the replay every admitted session departed: policy is empty.
	if used := policy.Used(); !used.IsZero() {
		t.Errorf("policy still holds %v after replay", used)
	}
}

func TestE56ReproducesPaperDigits(t *testing.T) {
	res, err := RunE56()
	if err != nil {
		t.Fatalf("RunE56: %v", err)
	}
	if len(res.Rows) != 6 {
		t.Fatalf("rows = %d, want 6 (t0..t5)", len(res.Rows))
	}
	rowByLabel := map[string]E56Row{}
	for _, r := range res.Rows {
		rowByLabel[r.Label] = r
	}

	// The unambiguous digits of the paper's measurement list.
	checks := []struct {
		label      string
		gInG, bInG float64
	}{
		{"t0", 10, 5},
		{"t1", 4, 11},
		{"t3", 14, 1},
		{"t4", 4, 11},
	}
	for _, c := range checks {
		row, ok := rowByLabel[c.label]
		if !ok {
			t.Fatalf("missing row %s", c.label)
		}
		g := row.Pools[0]
		if g.Guaranteed.CPU != c.gInG || g.BestEffort.CPU != c.bInG {
			t.Errorf("%s: G pool g=%g b=%g, want g=%g b=%g",
				c.label, g.Guaranteed.CPU, g.BestEffort.CPU, c.gInG, c.bInG)
		}
	}

	// t2: the failure is absorbed — every guaranteed SLA stays whole and
	// the 14 nodes of demand are split 12 in G, 2 in A.
	t2 := rowByLabel["t2"]
	if !t2.GuaranteedWhole {
		t.Error("t2: a guaranteed SLA was broken by the failure")
	}
	if t2.Pools[0].Guaranteed.CPU != 12 || t2.Pools[1].Guaranteed.CPU != 2 {
		t.Errorf("t2 split = G:%g A:%g, want 12/2",
			t2.Pools[0].Guaranteed.CPU, t2.Pools[1].Guaranteed.CPU)
	}
	if !t2.Pools[0].Offline.Equal(resource.Nodes(3)) {
		t.Errorf("t2 offline = %v", t2.Pools[0].Offline)
	}
	// Every checkpoint keeps guarantees whole (the paper's headline).
	for _, r := range res.Rows {
		if !r.GuaranteedWhole {
			t.Errorf("%s: guaranteed SLA below spec", r.Label)
		}
	}
	if !res.NetworkOK {
		t.Error("network sub-SLAs did not survive to expiry")
	}
	if res.Preemptions == 0 {
		t.Log("note: failure absorbed without best-effort preemption at NotifyFailure point")
	}
	table := res.Table()
	if !strings.Contains(table, "t2") || !strings.Contains(table, "G:g") {
		t.Errorf("Table output malformed:\n%s", table)
	}
	if len(res.Log) == 0 {
		t.Error("empty activity log")
	}
}

func TestC1AdaptiveNeverWorse(t *testing.T) {
	rows, err := RunC1(42, []float64{4, 16})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.UtilAdaptive < r.UtilStatic-0.01 {
			t.Errorf("λ=%g: adaptive utilization %.3f below static %.3f",
				r.ArrivalPerHour, r.UtilAdaptive, r.UtilStatic)
		}
		if r.AdmitAdaptive < r.AdmitStatic-0.01 {
			t.Errorf("λ=%g: adaptive admission %.3f below static %.3f",
				r.ArrivalPerHour, r.AdmitAdaptive, r.AdmitStatic)
		}
	}
	// Under heavy load the dynamic borrowing must show a strict win.
	last := rows[len(rows)-1]
	if last.UtilAdaptive <= last.UtilStatic {
		t.Errorf("heavy load: adaptive %.3f not above static %.3f",
			last.UtilAdaptive, last.UtilStatic)
	}
}

func TestC2ReserveProtectsGuarantees(t *testing.T) {
	rows, err := RunC2(42, []float64{0.1, 0.2})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.BrokenAdaptive > r.BrokenNoReserve {
			t.Errorf("f=%g: adaptive broke %d > no-reserve %d",
				r.FailureRate, r.BrokenAdaptive, r.BrokenNoReserve)
		}
	}
	// At a substantial failure rate the reserve must show a strict win.
	last := rows[len(rows)-1]
	if last.BrokenNoReserve == 0 {
		t.Error("baseline never broke a guarantee; failure injection ineffective")
	}
	if last.BrokenAdaptive >= last.BrokenNoReserve {
		t.Errorf("f=%g: adaptive %d not better than baseline %d",
			last.FailureRate, last.BrokenAdaptive, last.BrokenNoReserve)
	}
}

func TestC3BestEffortFloor(t *testing.T) {
	rows, err := RunC3(42)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if !r.BEFloorHonored {
			t.Errorf("g-load %g: best-effort floor violated (%d/%d admitted)",
				r.GuaranteedLoadNodes, r.BEAdmitted, r.BERequested)
		}
	}
}

func TestC4OptimizerBeatsBaselines(t *testing.T) {
	rows, err := RunC4(42, []int{4, 8, 24})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.ProfitGreedy < r.ProfitMinimum {
			t.Errorf("N=%d: greedy %.1f below minimum %.1f", r.Services, r.ProfitGreedy, r.ProfitMinimum)
		}
		if r.ProfitGreedy+1e-6 < r.ProfitFirstFit*0.95 {
			t.Errorf("N=%d: greedy %.1f far below first-fit %.1f", r.Services, r.ProfitGreedy, r.ProfitFirstFit)
		}
		if r.ProfitExact > 0 {
			if r.GreedyVsExact < 0.85 || r.GreedyVsExact > 1.0+1e-9 {
				t.Errorf("N=%d: greedy/exact = %.3f", r.Services, r.GreedyVsExact)
			}
		}
		if r.GreedyVsMinimum <= 1.0 {
			t.Errorf("N=%d: optimizer shows no gain over minimum", r.Services)
		}
	}
}

func TestC5CompensationAdmitsMore(t *testing.T) {
	rows, err := RunC5(42, []float64{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	none, all := rows[0], rows[1]
	if all.AdmittedWith <= none.AdmittedWith {
		t.Errorf("willing=1 admitted %d, not more than willing=0's %d",
			all.AdmittedWith, none.AdmittedWith)
	}
	if all.DegradedSessions == 0 {
		t.Error("no sessions degraded despite full willingness")
	}
}

func TestFormatters(t *testing.T) {
	c1, _ := RunC1(1, []float64{4})
	if !strings.Contains(FormatC1(c1), "util") {
		t.Error("FormatC1 malformed")
	}
	c3, _ := RunC3(1)
	if !strings.Contains(FormatC3(c3), "floor") {
		t.Error("FormatC3 malformed")
	}
	c4, _ := RunC4(1, []int{4})
	if !strings.Contains(FormatC4(c4), "greedy") {
		t.Error("FormatC4 malformed")
	}
	c5, _ := RunC5(1, []float64{1})
	if !strings.Contains(FormatC5(c5), "admitted") {
		t.Error("FormatC5 malformed")
	}
	c2, _ := RunC2(1, []float64{0.1})
	if !strings.Contains(FormatC2(c2), "broken") {
		t.Error("FormatC2 malformed")
	}
}

func TestStaticPolicySetOffline(t *testing.T) {
	p := NewStaticPolicy(paperPlan(26)) // C_G = 15
	if !p.AllocateGuaranteed("g", resource.Nodes(14), resource.Nodes(14)) {
		t.Fatal("admission failed")
	}
	// A failure the static baseline cannot cover breaks the guarantee.
	if !p.SetOffline(resource.Nodes(3)) {
		t.Error("broken guarantee not reported")
	}
	// Recovery clears it.
	if p.SetOffline(resource.Capacity{}) {
		t.Error("recovery reported broken guarantee")
	}
	// A small failure within the free headroom is survivable.
	p.ReleaseGuaranteed("g")
	if !p.AllocateGuaranteed("g", resource.Nodes(10), resource.Nodes(10)) {
		t.Fatal("re-admission failed")
	}
	if p.SetOffline(resource.Nodes(3)) {
		t.Error("covered failure reported as broken")
	}
	// Best-effort stays inside C_B only.
	if p.AllocateBestEffort("be", resource.Nodes(6)) {
		t.Error("static policy lent more than C_B")
	}
	if !p.AllocateBestEffort("be", resource.Nodes(5)) {
		t.Error("C_B refused")
	}
	p.ReleaseBestEffort("be")
	if used := p.Used(); !used.Equal(resource.Nodes(10)) {
		t.Errorf("Used = %v", used)
	}
}

func TestWorkloadDefaults(t *testing.T) {
	trace := Workload{Seed: 1}.Trace()
	if len(trace) == 0 {
		t.Fatal("defaults produced an empty trace")
	}
	stats := ReplayStats{}
	if stats.AdmissionRate() != 0 {
		t.Error("empty AdmissionRate != 0")
	}
}
