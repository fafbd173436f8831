package core_test

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"gqosm/internal/core"
	"gqosm/internal/invariant"
	"gqosm/internal/obs"
	"gqosm/internal/resource"
	"gqosm/internal/sim"
	"gqosm/internal/sla"
	"gqosm/internal/stack"
)

// mutatorPolicy is a deliberately hostile shadow candidate: it scribbles
// on what it is handed and answers nonsense. The seam carries values only
// (TestPolicySeamCarriesOnlyValues), so the scribbling reaches copies; if
// the allocator ever handed a shadow policy live state instead, running
// the mutator in shadow would corrupt sessions and the twin-state tests
// below would fail. It joins the policy table only inside this test
// binary.
type mutatorPolicy struct{}

func (mutatorPolicy) Name() string { return "test-mutator" }

func (mutatorPolicy) PartitionGrant(v core.PartitionView, requested, floor resource.Capacity) core.GrantKind {
	v.Plan.Guaranteed = resource.Capacity{}
	v.Demand = v.Demand.Add(resource.Nodes(1e9))
	return core.GrantRequested
}

func init() { core.AppendPolicy(mutatorPolicy{}) }

// TestPolicyRegistry pins the table: the two shipped policies, paper
// first, and nothing under any other name.
func TestPolicyRegistry(t *testing.T) {
	names := core.PolicyNames()
	if len(names) < 2 || names[0] != "paper" || names[1] != "revenue-greedy" {
		t.Errorf("PolicyNames() = %v, want paper, revenue-greedy, then test doubles", names)
	}
	for _, name := range names {
		if p, ok := core.LookupPolicy(name); !ok || p.Name() != name {
			t.Errorf("LookupPolicy(%s) = %v, %v", name, p, ok)
		}
	}
	if _, ok := core.LookupPolicy("no-such-policy"); ok {
		t.Fatal("LookupPolicy(no-such-policy) unexpectedly resolved")
	}
}

// TestPolicySeamCarriesOnlyValues holds shadow inertness by construction:
// everything a policy is handed — the view and the two grant arguments —
// is a value all the way down. One pointer, slice, map, func, chan or
// interface field would give a candidate a path to live allocator state.
func TestPolicySeamCarriesOnlyValues(t *testing.T) {
	var walk func(path string, typ reflect.Type)
	walk = func(path string, typ reflect.Type) {
		switch typ.Kind() {
		case reflect.Pointer, reflect.UnsafePointer, reflect.Slice, reflect.Map,
			reflect.Func, reflect.Chan, reflect.Interface:
			t.Errorf("%s is a %s: a policy could reach (or alias) live state through it", path, typ.Kind())
		case reflect.Struct:
			for i := 0; i < typ.NumField(); i++ {
				walk(path+"."+typ.Field(i).Name, typ.Field(i).Type)
			}
		case reflect.Array:
			walk(path+"[]", typ.Elem())
		}
	}
	grant, _ := reflect.TypeOf((*core.Policy)(nil)).Elem().MethodByName("PartitionGrant")
	if grant.Type.NumIn() != 3 {
		t.Fatalf("PartitionGrant takes %d arguments, want the view and two capacities", grant.Type.NumIn())
	}
	for i := 0; i < grant.Type.NumIn(); i++ {
		walk(fmt.Sprintf("PartitionGrant arg %d (%s)", i, grant.Type.In(i)), grant.Type.In(i))
	}
}

func TestGrantKindString(t *testing.T) {
	for kind, want := range map[core.GrantKind]string{
		core.GrantRefuse:    "refuse",
		core.GrantFloor:     "floor",
		core.GrantRequested: "requested",
	} {
		if got := kind.String(); got != want {
			t.Errorf("GrantKind(%d).String() = %q, want %q", kind, got, want)
		}
	}
}

// TestPaperPartitionGrant pins the Algorithm-1 admission answers: full
// request within the bound, floor fallback, refusal.
func TestPaperPartitionGrant(t *testing.T) {
	paper, _ := core.LookupPolicy("paper")
	view := func(demand float64) core.PartitionView {
		return core.PartitionView{
			Plan: core.CapacityPlan{
				Guaranteed: resource.Nodes(10),
				Adaptive:   resource.Nodes(4),
			},
			Demand:     resource.Nodes(demand),
			EffectiveG: resource.Nodes(10),
			Bound:      resource.Nodes(10), // min(C_G, C_G_eff + C_A)
		}
	}
	cases := []struct {
		name             string
		demand           float64
		requested, floor float64
		want             core.GrantKind
	}{
		{"full-fit", 5, 5, 2, core.GrantRequested},
		{"exact-boundary", 5, 5.0, 5.0, core.GrantRequested},
		{"floor-only", 7, 5, 2, core.GrantFloor},
		{"refuse", 9, 5, 2, core.GrantRefuse},
		{"empty-partition-full", 0, 10, 1, core.GrantRequested},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := paper.PartitionGrant(view(tc.demand), resource.Nodes(tc.requested), resource.Nodes(tc.floor))
			if got != tc.want {
				t.Errorf("PartitionGrant(demand=%v, req=%v, floor=%v) = %v, want %v",
					tc.demand, tc.requested, tc.floor, got, tc.want)
			}
		})
	}
}

// TestRevenueGreedyAdmitsIntoReserve pins the candidate's defining move:
// where the paper's bound (C_G) already refuses, revenue-greedy admits
// guaranteed demand into half the adaptive reserve — and no further.
func TestRevenueGreedyAdmitsIntoReserve(t *testing.T) {
	paper, _ := core.LookupPolicy("paper")
	greedy, _ := core.LookupPolicy("revenue-greedy")
	v := core.PartitionView{
		Plan: core.CapacityPlan{
			Guaranteed: resource.Nodes(10),
			Adaptive:   resource.Nodes(4),
		},
		Demand:     resource.Nodes(9),
		EffectiveG: resource.Nodes(10),
		Bound:      resource.Nodes(10),
	}
	req, floor := resource.Nodes(2), resource.Nodes(1)

	// 9 + 2 = 11 > 10: the paper falls back to the floor (9 + 1 = 10).
	if got := paper.PartitionGrant(v, req, floor); got != core.GrantFloor {
		t.Fatalf("paper grant = %v, want floor", got)
	}
	// revenue-greedy's bound is C_G_eff + C_A/2 = 12, so 11 fits.
	if got := greedy.PartitionGrant(v, req, floor); got != core.GrantRequested {
		t.Fatalf("revenue-greedy grant = %v, want requested", got)
	}
	// But only HALF the reserve: demand past 12 is refused even though
	// the hard ceiling (C_G_eff + C_A = 14) would still tolerate it.
	v.Demand = resource.Nodes(10.5)
	if got := greedy.PartitionGrant(v, req, floor); got != core.GrantFloor {
		t.Fatalf("revenue-greedy grant over half-reserve = %v, want floor", got)
	}
	v.Demand = resource.Nodes(13)
	if got := greedy.PartitionGrant(v, req, floor); got != core.GrantRefuse {
		t.Fatalf("revenue-greedy grant past half-reserve = %v, want refuse", got)
	}
}

// --- shadow-inertness twin-state tests -------------------------------

// twinLog drives one cluster with the decoded op stream (driveOps's
// 2-byte encoding on 1 shard, driveShardedOps's 3-byte encoding
// otherwise), recording every externally visible outcome and running the
// invariant oracle after each step. Two clusters differing only in
// ShadowPolicy must produce identical logs and fingerprints.
func twinLog(t *testing.T, shadow string, shards int, data []byte) []string {
	t.Helper()
	cluster, err := sim.NewCluster(stack.Config{
		Plan:         sim.DefaultParallelPlan(),
		Shards:       shards,
		ShadowPolicy: shadow,
		Obs:          obs.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	b := cluster.Broker
	clock := cluster.Clock

	var log []string
	var proposed, active []sla.ID
	pop := func(ids *[]sla.ID, arg byte) (sla.ID, bool) {
		if len(*ids) == 0 {
			return "", false
		}
		i := int(arg) % len(*ids)
		id := (*ids)[i]
		*ids = append((*ids)[:i], (*ids)[i+1:]...)
		return id, true
	}
	record := func(format string, args ...any) {
		log = append(log, fmt.Sprintf(format, args...))
	}

	width := 2
	if shards > 1 {
		width = 3
	}
	for step := 0; step+width-1 < len(data); step += width {
		op, arg := data[step]%11, data[step+1]
		hint := 0
		if width == 3 {
			hint = int(data[step+2]) % (shards + 1)
		}
		switch {
		case op <= 2:
			now := clock.Now()
			cpu := float64(1 + (arg>>1)&7)
			end := now.Add(time.Duration(1+(arg>>4)&7) * time.Hour)
			var req core.Request
			if arg&1 == 0 {
				req = core.Request{
					Service: "simulation", Client: "twin-g" + fmt.Sprint(step),
					Class: sla.ClassGuaranteed,
					Spec:  sla.NewSpec(sla.Exact(resource.CPU, cpu)),
					Start: now, End: end, ShardHint: hint,
				}
			} else {
				req = core.Request{
					Service: "simulation", Client: "twin-c" + fmt.Sprint(step),
					Class: sla.ClassControlledLoad,
					Spec:  sla.NewSpec(sla.Range(resource.CPU, cpu, cpu+float64((arg>>4)&7))),
					Start: now, End: end,
					AcceptDegradation: arg&0x80 != 0, ShardHint: hint,
				}
			}
			offer, err := b.RequestService(req)
			if err == nil {
				proposed = append(proposed, offer.SLA.ID)
				record("request %d -> %s", step, offer.SLA.ID)
			} else {
				record("request %d -> err %v", step, err)
			}
		case op == 3:
			if id, ok := pop(&proposed, arg); ok {
				err := b.Accept(id)
				if err == nil {
					active = append(active, id)
				}
				record("accept %s -> %v", id, err)
			}
		case op == 4:
			if id, ok := pop(&proposed, arg); ok {
				record("reject %s -> %v", id, b.Reject(id))
			}
		case op == 5:
			if len(active) > 0 {
				id := active[int(arg)%len(active)]
				_, err := b.Invoke(id)
				record("invoke %s -> %v", id, err)
			}
		case op == 6:
			if id, ok := pop(&active, arg); ok {
				record("terminate %s -> %v", id, b.Terminate(id, "twin"))
			}
		case op == 7:
			clock.Advance(time.Duration(10+int(arg)) * time.Minute)
			b.ExpireDue()
			record("advance %d", arg)
		case op == 8:
			if arg&1 == 0 {
				b.NotifyFailure(resource.Nodes(float64((arg >> 1) & 7)))
			} else {
				b.NotifyFailure(resource.Capacity{})
			}
			record("failure %d", arg)
		case op == 9:
			client := "twin-be" + fmt.Sprint(int(arg)%4)
			if arg&4 == 0 {
				record("be-req %s -> %v", client, b.BestEffortRequest(client, resource.Nodes(float64(1+(arg>>3)&7))))
			} else {
				record("be-rel %s -> %v", client, b.BestEffortRelease(client))
			}
			out, err := b.RunOptimizer()
			record("optimize -> %d %v %v %v", out.Considered, out.Applied, out.Gain, err)
		case op == 10:
			if len(active) > 0 {
				id := active[int(arg)%len(active)]
				hi := 1 + float64((arg>>4)&7)
				_, err := b.Renegotiate(id, sla.NewSpec(sla.Range(resource.CPU, 1, hi)))
				record("reneg %s -> %v", id, err)
			}
		}
		if err := invariant.CheckAll(b, clock.Now(), cluster.Pool); err != nil {
			t.Fatalf("shadow=%q step %d (op %d): %v", shadow, step/width, op, err)
		}
	}

	// Final-state fingerprint: per-shard capacity accounting and grants.
	for i, a := range b.Allocators() {
		record("shard %d availG=%v util=%v users=%v", i,
			a.AvailableGuaranteed(), a.Utilization(), a.GuaranteedUsers())
	}
	return log
}

// driveTwin runs the same op stream with shadowing off and on and fails
// on the first diverging outcome — the executable form of the
// shadow-inertness invariant at broker level.
func driveTwin(t *testing.T, candidate string, shards int, data []byte) {
	t.Helper()
	off := twinLog(t, "", shards, data)
	on := twinLog(t, candidate, shards, data)
	if len(off) != len(on) {
		t.Fatalf("shadow %q changed outcome count: off=%d on=%d", candidate, len(off), len(on))
	}
	for i := range off {
		if off[i] != on[i] {
			t.Fatalf("shadow %q diverged at outcome %d:\n  off: %s\n  on:  %s",
				candidate, i, off[i], on[i])
		}
	}
}

// TestShadowPolicyIsInert drives the deterministic seed-1955 stream with
// each candidate — including the hostile mutator — consulted in shadow,
// and requires byte-identical outcomes to the shadow-off run.
func TestShadowPolicyIsInert(t *testing.T) {
	for _, candidate := range []string{"revenue-greedy", "test-mutator"} {
		candidate := candidate
		t.Run(candidate, func(t *testing.T) {
			driveTwin(t, candidate, 1, seedStream(1955, 300))
		})
	}
}

// TestShadowPolicyIsInertSharded repeats the twin drive on a 3-shard
// broker: one allocator per shard, each consulting the candidate.
func TestShadowPolicyIsInertSharded(t *testing.T) {
	for _, candidate := range []string{"revenue-greedy", "test-mutator"} {
		candidate := candidate
		t.Run(candidate, func(t *testing.T) {
			driveTwin(t, candidate, 3, seedStream(1955, 300))
		})
	}
}

// TestBrokerPolicyWiring covers Config resolution and the management
// accessors: defaulting to "paper", rejecting unknown names, and the
// PolicyReport surface qosctl reads.
func TestBrokerPolicyWiring(t *testing.T) {
	cluster, err := sim.NewCluster(stack.Config{Plan: sim.DefaultParallelPlan()})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	if got := cluster.Broker.PolicyName(); got != "paper" {
		t.Errorf("default PolicyName = %q, want paper", got)
	}
	if got := cluster.Broker.ShadowPolicyName(); got != "" {
		t.Errorf("default ShadowPolicyName = %q, want empty", got)
	}
	rep := cluster.Broker.Policies()
	if rep.Active != "paper" || rep.Shadow != "" || len(rep.Policies) < 3 {
		t.Errorf("Policies() = %+v", rep)
	}

	if _, err := sim.NewCluster(stack.Config{
		Plan: sim.DefaultParallelPlan(), Policy: "no-such-policy",
	}); err == nil {
		t.Error("unknown Policy did not fail broker construction")
	}
	if _, err := sim.NewCluster(stack.Config{
		Plan: sim.DefaultParallelPlan(), ShadowPolicy: "no-such-policy",
	}); err == nil {
		t.Error("unknown ShadowPolicy did not fail broker construction")
	}

	shadowed, err := sim.NewCluster(stack.Config{
		Plan: sim.DefaultParallelPlan(), Policy: "revenue-greedy", ShadowPolicy: "paper",
	})
	if err != nil {
		t.Fatal(err)
	}
	defer shadowed.Close()
	rep = shadowed.Broker.Policies()
	if rep.Active != "revenue-greedy" || rep.Shadow != "paper" {
		t.Errorf("Policies() = %+v", rep)
	}
}

// TestShadowCounters drives a shadow-on cluster and checks the counter
// pair: consultations flow, and some of them diverge.
func TestShadowCounters(t *testing.T) {
	reg := obs.NewRegistry()
	cluster, err := sim.NewCluster(stack.Config{
		Plan: sim.DefaultParallelPlan(), ShadowPolicy: "revenue-greedy", Obs: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	b := cluster.Broker
	now := cluster.Clock.Now()
	for i := 0; i < 20; i++ {
		req := core.Request{
			Service: "simulation", Client: fmt.Sprintf("ctr-%d", i),
			Class: sla.ClassGuaranteed,
			Spec:  sla.NewSpec(sla.Exact(resource.CPU, 2)),
			Start: now, End: now.Add(time.Hour),
		}
		if offer, err := b.RequestService(req); err == nil {
			_ = b.Accept(offer.SLA.ID)
		}
	}
	evals, diverged := core.ShadowCounts(reg)
	if evals <= 0 {
		t.Fatalf("shadow evaluations = %d, want > 0", evals)
	}
	// 20 guaranteed admissions against C_G=15 saturate the paper bound;
	// revenue-greedy keeps admitting into the reserve, so some partition
	// grants must have diverged.
	if diverged <= 0 || diverged > evals {
		t.Errorf("partition divergence = %d of %d evaluations, want within (0, evaluations]", diverged, evals)
	}
	// The exposition carries the one family and no always-zero sibling.
	var text strings.Builder
	if err := reg.WritePrometheus(&text); err != nil {
		t.Fatal(err)
	}
	var series []string
	for _, line := range strings.Split(text.String(), "\n") {
		if strings.HasPrefix(line, "gqosm_shadow_divergence_total{") {
			series = append(series, line)
		}
	}
	want := fmt.Sprintf(`gqosm_shadow_divergence_total{family="partition"} %d`, diverged)
	if len(series) != 1 || series[0] != want {
		t.Errorf("divergence series = %q, want only %q", series, want)
	}
}
