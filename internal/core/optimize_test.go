package core

import (
	"errors"
	"math"
	"math/rand"
	"strconv"
	"testing"

	"gqosm/internal/pricing"
	"gqosm/internal/resource"
	"gqosm/internal/sla"
)

var stdRates = pricing.Rates{PerCPUNode: 4, PerMemoryMB: 0.005, PerDiskGB: 0.2, PerMbps: 0.05}

func optSvc(id string, params ...sla.Param) OptService {
	return OptService{ID: sla.ID(id), Spec: sla.NewSpec(params...), Rates: stdRates}
}

func TestGreedySingleServiceTakesBest(t *testing.T) {
	p := OptProblem{
		Services: []OptService{optSvc("a", sla.Range(resource.CPU, 4, 10))},
		Capacity: resource.Nodes(26),
	}
	res, err := Greedy(p)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Assignment["a"]; !got.Equal(resource.Nodes(10)) {
		t.Errorf("assignment = %v, want best quality 10", got)
	}
	if math.Abs(res.Profit-40) > 1e-9 {
		t.Errorf("profit = %g, want 40", res.Profit)
	}
}

func TestGreedyRespectsCapacity(t *testing.T) {
	p := OptProblem{
		Services: []OptService{
			optSvc("a", sla.List(resource.CPU, 4, 8, 12)),
			optSvc("b", sla.List(resource.CPU, 4, 8, 12)),
		},
		Capacity: resource.Nodes(16),
	}
	res, err := Greedy(p)
	if err != nil {
		t.Fatal(err)
	}
	total := res.Assignment["a"].Add(res.Assignment["b"])
	if !total.FitsIn(resource.Nodes(16)) {
		t.Fatalf("assignment %v exceeds capacity", total)
	}
	// Optimum is 12+4 or 8+8 or 4+12 = 16 nodes → profit 64.
	if math.Abs(res.Profit-64) > 1e-9 {
		t.Errorf("profit = %g, want 64", res.Profit)
	}
	for id, c := range res.Assignment {
		var svc OptService
		for _, s := range p.Services {
			if s.ID == id {
				svc = s
			}
		}
		if !svc.Spec.Accepts(c) {
			t.Errorf("assignment %v for %s not acceptable", c, id)
		}
	}
}

func TestGreedyInfeasibleFloors(t *testing.T) {
	p := OptProblem{
		Services: []OptService{
			optSvc("a", sla.Exact(resource.CPU, 20)),
			optSvc("b", sla.Exact(resource.CPU, 20)),
		},
		Capacity: resource.Nodes(26),
	}
	if _, err := Greedy(p); !errors.Is(err, ErrInfeasible) {
		t.Errorf("err = %v, want ErrInfeasible", err)
	}
	if _, err := Exact(p); !errors.Is(err, ErrInfeasible) {
		t.Errorf("Exact err = %v, want ErrInfeasible", err)
	}
	if _, err := BaselineMinimum(p); !errors.Is(err, ErrInfeasible) {
		t.Errorf("BaselineMinimum err = %v", err)
	}
	if _, err := BaselineFirstFit(p); !errors.Is(err, ErrInfeasible) {
		t.Errorf("BaselineFirstFit err = %v", err)
	}
}

func TestExactSmallOracle(t *testing.T) {
	// Hand-checkable: capacity 10, two services with lists {2,6} and
	// {2,8}. Feasible combos: (2,2)=16, (2,8)=40, (6,2)=32 → optimum 40.
	p := OptProblem{
		Services: []OptService{
			optSvc("a", sla.List(resource.CPU, 2, 6)),
			optSvc("b", sla.List(resource.CPU, 2, 8)),
		},
		Capacity: resource.Nodes(10),
	}
	res, err := Exact(p)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Profit-40) > 1e-9 {
		t.Errorf("Exact profit = %g, want 40", res.Profit)
	}
	if !res.Assignment["a"].Equal(resource.Nodes(2)) || !res.Assignment["b"].Equal(resource.Nodes(8)) {
		t.Errorf("assignment = %v", res.Assignment)
	}
}

func TestExactRejectsHugeInstances(t *testing.T) {
	p := OptProblem{Capacity: resource.Nodes(1000)}
	for i := 0; i < exactLimit+1; i++ {
		p.Services = append(p.Services, optSvc("s"+strconv.Itoa(i), sla.Exact(resource.CPU, 1)))
	}
	if _, err := Exact(p); err == nil {
		t.Error("oversized Exact accepted")
	}
}

func TestMultiDimensionalCoupling(t *testing.T) {
	// CPU-rich/memory-poor: the optimizer must trade dimensions
	// independently per service but respect both constraints.
	p := OptProblem{
		Services: []OptService{
			optSvc("a", sla.Range(resource.CPU, 2, 10), sla.List(resource.MemoryMB, 512, 2048)),
			optSvc("b", sla.Range(resource.CPU, 2, 10), sla.List(resource.MemoryMB, 512, 2048)),
		},
		Capacity: resource.Capacity{CPU: 12, MemoryMB: 2560},
	}
	exact, err := Exact(p)
	if err != nil {
		t.Fatal(err)
	}
	var cpu, mem float64
	for _, c := range exact.Assignment {
		cpu += c.CPU
		mem += c.MemoryMB
	}
	if cpu > 12+1e-9 || mem > 2560+1e-9 {
		t.Fatalf("exact violates capacity: cpu=%g mem=%g", cpu, mem)
	}
	greedy, err := Greedy(p)
	if err != nil {
		t.Fatal(err)
	}
	if greedy.Profit > exact.Profit+1e-9 {
		t.Fatalf("greedy %g beat exact %g", greedy.Profit, exact.Profit)
	}
	if greedy.Profit < 0.9*exact.Profit {
		t.Errorf("greedy %g below 90%% of exact %g", greedy.Profit, exact.Profit)
	}
}

// Property: on random small instances, Greedy is feasible and within 85%
// of Exact; baselines never beat Exact; ordering
// minimum ≤ {first-fit, greedy} ≤ exact holds.
func TestOptimizerOrderingProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	for trial := 0; trial < 60; trial++ {
		n := 2 + rng.Intn(4)
		p := OptProblem{Capacity: resource.Capacity{
			CPU:      float64(10 + rng.Intn(30)),
			MemoryMB: float64(1024 + rng.Intn(4096)),
		}}
		for i := 0; i < n; i++ {
			minCPU := float64(1 + rng.Intn(3))
			maxCPU := minCPU + float64(rng.Intn(8))
			minMem := float64(128 * (1 + rng.Intn(3)))
			svc := OptService{
				ID: sla.ID("s" + strconv.Itoa(i)),
				Spec: sla.NewSpec(
					sla.Range(resource.CPU, minCPU, maxCPU),
					sla.List(resource.MemoryMB, minMem, minMem*2),
				),
				Rates:      stdRates,
				RangeSteps: 3,
			}
			p.Services = append(p.Services, svc)
		}

		exact, errE := Exact(p)
		greedy, errG := Greedy(p)
		min, errM := BaselineMinimum(p)
		ff, errF := BaselineFirstFit(p)
		if errE != nil {
			// Infeasible floors: everyone must agree.
			if errG == nil || errM == nil || errF == nil {
				t.Fatalf("trial %d: feasibility disagreement", trial)
			}
			continue
		}
		if errG != nil || errM != nil || errF != nil {
			t.Fatalf("trial %d: heuristics failed on feasible instance: %v %v %v", trial, errG, errM, errF)
		}
		if min.Profit > exact.Profit+1e-6 || ff.Profit > exact.Profit+1e-6 || greedy.Profit > exact.Profit+1e-6 {
			t.Fatalf("trial %d: a heuristic beat exact (min=%g ff=%g greedy=%g exact=%g)",
				trial, min.Profit, ff.Profit, greedy.Profit, exact.Profit)
		}
		if greedy.Profit < min.Profit-1e-6 {
			t.Fatalf("trial %d: greedy %g below minimum baseline %g", trial, greedy.Profit, min.Profit)
		}
		if greedy.Profit < 0.85*exact.Profit {
			t.Fatalf("trial %d: greedy %g below 85%% of exact %g", trial, greedy.Profit, exact.Profit)
		}
		// Feasibility and acceptability of every assignment.
		for _, res := range []OptResult{exact, greedy, min, ff} {
			var sum resource.Capacity
			for _, s := range p.Services {
				c := res.Assignment[s.ID]
				if !s.Spec.Accepts(c) {
					t.Fatalf("trial %d: unacceptable assignment %v", trial, c)
				}
				sum = sum.Add(c)
			}
			if !sum.FitsIn(p.Capacity) {
				t.Fatalf("trial %d: assignment exceeds capacity", trial)
			}
		}
	}
}

func TestBaselineMinimumIsFloors(t *testing.T) {
	p := OptProblem{
		Services: []OptService{optSvc("a", sla.Range(resource.CPU, 4, 10))},
		Capacity: resource.Nodes(26),
	}
	res, err := BaselineMinimum(p)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Assignment["a"].Equal(resource.Nodes(4)) {
		t.Errorf("minimum baseline = %v", res.Assignment["a"])
	}
}

func TestBaselineFirstFitOrderDependence(t *testing.T) {
	// First-fit gives the first arrival its best level; the optimizer
	// would share. Capacity 12; both want {4, 10}. First-fit: a=10, b
	// stays 4 → total 14 > 12? No: floors reserved first (4+4=8), then a
	// upgrades to 10 needs +6 > 12-8=4 → a stays 4; b same. So first-fit
	// = 8 nodes, profit 32. Greedy finds the same here; with levels
	// {4,8} first-fit upgrades a to 8 (+4 fits) and not b.
	p := OptProblem{
		Services: []OptService{
			optSvc("a", sla.List(resource.CPU, 4, 8)),
			optSvc("b", sla.List(resource.CPU, 4, 8)),
		},
		Capacity: resource.Nodes(12),
	}
	res, err := BaselineFirstFit(p)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Assignment["a"].Equal(resource.Nodes(8)) || !res.Assignment["b"].Equal(resource.Nodes(4)) {
		t.Errorf("first-fit = %v", res.Assignment)
	}
}

func TestOptServiceChoicesDefaultSteps(t *testing.T) {
	p := OptProblem{Services: []OptService{
		optSvc("a", sla.Range(resource.CPU, 0, 9)),
		optSvc("b", sla.List(resource.MemoryMB, 1, 2, 3, 4, 5, 6), sla.Exact(resource.BandwidthMbps, 7)),
	}}
	table := p.levels()
	if levels := table.of(0, 0); len(levels) != 4 || levels[0] != 0 || levels[3] != 9 {
		t.Errorf("default choices = %v", levels)
	}
	// A list longer than the range steps grows the flat slice; absent
	// dimensions are empty.
	for ki, want := range []int{0, 6, 0, 1} {
		if got := table.of(1, ki); len(got) != want {
			t.Errorf("service b, %s: levels = %v, want %d", resource.Kinds[ki], got, want)
		}
	}
}

// greedyReference is the Greedy this package shipped until PR 17, kept as
// the oracle for TestGreedyMatchesReference: every service rescanned, and
// its level map rebuilt, on every iteration of the outer loop. The body is
// verbatim except that used is seeded from floorsOf's ordered sum (the old
// code summed in map order, which made its own last bits vary run to run).
func greedyReference(p OptProblem) (OptResult, error) {
	choices := func(s OptService) map[resource.Kind][]float64 {
		out := make(map[resource.Kind][]float64, len(s.Spec.Params))
		for k, prm := range s.Spec.Params {
			out[k] = prm.AppendChoices(nil, s.steps())
		}
		return out
	}
	floors, used, err := p.floorsOf()
	if err != nil {
		return OptResult{}, err
	}
	assign := make(map[sla.ID]resource.Capacity, len(p.Services))
	for i, s := range p.Services {
		assign[s.ID] = floors[i]
	}

	type upgrade struct {
		svc     int
		kind    resource.Kind
		to      float64
		gain    float64
		cost    float64 // capacity consumed in that dimension
		density float64
	}
	// Iterate until no feasible upgrade improves profit.
	for {
		best := upgrade{density: -1}
		for si, s := range p.Services {
			cur := assign[s.ID]
			for k, levels := range choices(s) {
				curV := cur.Get(k)
				// The next level above the current one.
				for _, lv := range levels {
					if lv <= curV+resource.Epsilon {
						continue
					}
					delta := lv - curV
					if used.Get(k)+delta > p.Capacity.Get(k)+resource.Epsilon {
						break // levels ascend; larger ones also fail
					}
					gain := s.Rates.Rate(k) * delta
					density := gain / delta
					if gain > resource.Epsilon && density > best.density {
						best = upgrade{svc: si, kind: k, to: lv, gain: gain, cost: delta, density: density}
					}
					break // only consider the immediate next level per (svc, kind)
				}
			}
		}
		if best.density < 0 {
			break
		}
		s := p.Services[best.svc]
		cur := assign[s.ID]
		assign[s.ID] = cur.With(best.kind, best.to)
		used = used.With(best.kind, used.Get(best.kind)+best.cost)
	}

	total := 0.0
	for _, s := range p.Services {
		total += s.Rates.Cost(assign[s.ID])
	}
	return OptResult{Assignment: assign, Profit: total}, nil
}

// randomOptProblem draws a §5.3 instance whose capacity binds: every
// dimension holds the floors plus a slack smaller than what the upgrades
// ask for, so which upgrade is picked first decides who gets it.
func randomOptProblem(rng *rand.Rand) OptProblem {
	var p OptProblem
	// A small rate palette makes equal rates (density ties between
	// services) common; zero rates make stuck services common.
	palette := []float64{0, 0.005, 0.05, 0.2, 0.3, 1, 4, rng.Float64() * 5}
	value := func() float64 {
		if rng.Intn(2) == 0 {
			return float64(rng.Intn(12)) // integers: exact ties in delta
		}
		return rng.Float64() * 12 // fractions: densities that round apart
	}
	var want resource.Capacity // Σ(best − floor)
	for i, n := 0, 1+rng.Intn(24); i < n; i++ {
		s := OptService{ID: sla.ID("s" + strconv.Itoa(i)), RangeSteps: rng.Intn(6), Rates: stdRates}
		if rng.Intn(3) > 0 {
			pick := func() float64 { return palette[rng.Intn(len(palette))] }
			s.Rates = pricing.Rates{PerCPUNode: pick(), PerMemoryMB: pick(), PerDiskGB: pick(), PerMbps: pick()}
		}
		var params []sla.Param
		for _, k := range resource.Kinds {
			switch rng.Intn(4) {
			case 0: // dimension absent
			case 1:
				params = append(params, sla.Exact(k, value()))
			case 2:
				lo := value()
				hi := lo
				if rng.Intn(8) > 0 { // sometimes a degenerate range
					hi += value()
				}
				params = append(params, sla.Range(k, lo, hi))
			case 3:
				vals := make([]float64, 1+rng.Intn(7)) // up to 7: longer than any RangeSteps
				for j := range vals {
					vals[j] = value()
				}
				params = append(params, sla.List(k, vals...))
			}
		}
		s.Spec = sla.NewSpec(params...)
		p.Services = append(p.Services, s)
		p.Capacity = p.Capacity.Add(s.Spec.Floor())
		want = want.Add(s.Spec.Best().Sub(s.Spec.Floor()))
	}
	for _, k := range resource.Kinds {
		slack := want.Get(k) * rng.Float64() * 0.7
		if rng.Intn(10) == 0 {
			slack = 0 // nothing fits
		}
		p.Capacity = p.Capacity.With(k, p.Capacity.Get(k)+slack)
	}
	return p
}

// The per-dimension candidate scan must give the answers the old
// whole-problem rescan gave, to the bit: the committed digests hang on the
// pick order under binding capacity, which in turn hangs on the rounding
// of (rate*delta)/delta.
func TestGreedyMatchesReference(t *testing.T) {
	const problems = 12000
	rng := rand.New(rand.NewSource(1703))
	upgraded := 0
	for trial := 0; trial < problems; trial++ {
		p := randomOptProblem(rng)
		want, werr := greedyReference(p)
		got, gerr := Greedy(p)
		if werr != nil || gerr != nil {
			t.Fatalf("trial %d: feasible by construction, got errors %v / %v", trial, werr, gerr)
		}
		if len(got.Assignment) != len(want.Assignment) {
			t.Fatalf("trial %d: assignment differs\nreference %v\ngreedy    %v", trial, want.Assignment, got.Assignment)
		}
		for id, c := range want.Assignment {
			if got.Assignment[id] != c { // bit for bit, not within Epsilon: the kernel is exact
				t.Fatalf("trial %d: %s = %v, reference %v", trial, id, got.Assignment[id], c)
			}
		}
		if math.Float64bits(got.Profit) != math.Float64bits(want.Profit) {
			t.Fatalf("trial %d: profit %v, reference %v", trial, got.Profit, want.Profit)
		}
		if min, _ := BaselineMinimum(p); got.Profit > min.Profit {
			upgraded++
		}
	}
	// The generator must exercise the pick order, not only the floors.
	if upgraded < problems/2 {
		t.Errorf("only %d of %d problems had a profitable upgrade", upgraded, problems)
	}
}

// Greedy's allocations are the level table, the candidate and assignment
// slices and the result map: a constant, whatever the service count and
// however many upgrades it applies.
func TestGreedyAllocGate(t *testing.T) {
	const ceiling = 16
	problem := func(n int, capacity float64) OptProblem {
		p := OptProblem{Capacity: resource.Capacity{CPU: capacity, MemoryMB: 128 * float64(n)}}
		for i := 0; i < n; i++ {
			p.Services = append(p.Services, optSvc("s"+strconv.Itoa(i),
				sla.Range(resource.CPU, 1, float64(i%3+2)), sla.Exact(resource.MemoryMB, 128)))
		}
		return p
	}
	var counts []float64
	for _, p := range []OptProblem{
		problem(16, 1e6), // every service climbs to its best
		problem(64, 1e6),
		problem(64, 64), // floors only: nothing fits
	} {
		allocs := testing.AllocsPerRun(20, func() {
			if _, err := Greedy(p); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > ceiling {
			t.Errorf("Greedy on %d services: %.0f allocs, ceiling %d", len(p.Services), allocs, ceiling)
		}
		counts = append(counts, allocs)
	}
	if counts[0] != counts[1] || counts[1] != counts[2] {
		t.Errorf("allocations at 16 / 64 / 64-no-upgrade services = %v, want one constant", counts)
	}
}

// Regression: the optimizer's reallocation plan fits the pool jointly,
// but it can only be applied if downsizes land before the upgrades they
// fund. Applying an upgrade first transiently over-demands the pool;
// AllocateGuaranteed then replaces the session's existing grant with
// its floor, and skipping the document update on that partial grant
// left allocator and document disagreeing (doc-allocator-skew).
func TestOptimizerApplyKeepsDocAndAllocatorConsistent(t *testing.T) {
	h := newHarness(t)
	b := h.broker

	admit := func(req Request) sla.ID {
		t.Helper()
		offer, err := b.RequestService(req)
		if err != nil {
			t.Fatal(err)
		}
		if err := b.Accept(offer.SLA.ID); err != nil {
			t.Fatal(err)
		}
		return offer.SLA.ID
	}
	cl := func(client string, lo, hi float64) Request {
		return Request{
			Service: "simulation", Client: client,
			Class:             sla.ClassControlledLoad,
			Spec:              sla.NewSpec(sla.Range(resource.CPU, lo, hi)),
			Start:             t0,
			End:               t5,
			AcceptDegradation: true,
		}
	}

	// The guaranteed pool admits 15 CPU. The filler pins 3 of them.
	filler := admit(Request{
		Service: "simulation", Client: "filler",
		Class: sla.ClassGuaranteed,
		Spec:  sla.NewSpec(sla.Exact(resource.CPU, 3)),
		Start: t0, End: t5,
	})
	// "narrow" is admitted at its best (4); "wide" takes the rest (8).
	narrow := admit(cl("narrow", 2, 4))
	wide := admit(cl("wide", 2, 8))

	// Widen narrow's spec with zero headroom: its allocation stays at 4
	// while the spec now reaches 14, so the next optimizer pass will
	// want to upgrade it well past what is free.
	res, err := b.Renegotiate(narrow, sla.NewSpec(sla.Range(resource.CPU, 2, 14)))
	if err != nil {
		t.Fatal(err)
	}
	if res.New.CPU != 4 {
		t.Fatalf("setup: renegotiated allocation = %v, want CPU 4", res.New)
	}

	// Terminating the filler frees 3 CPU and runs the scenario-2
	// optimizer. Its plan: narrow 4→10, wide 8→4 — narrow's upgrade
	// only fits after wide's downsize funds it.
	if err := b.Terminate(filler, "done"); err != nil {
		t.Fatal(err)
	}

	for _, id := range []sla.ID{narrow, wide} {
		doc, err := b.Session(id)
		if err != nil {
			t.Fatal(err)
		}
		got, held := b.Allocator().GuaranteedAllocation(string(id))
		if !held {
			t.Fatalf("%s: live session has no allocator grant", id)
		}
		if !got.Equal(doc.Allocated) {
			t.Errorf("%s: document says %v, allocator says %v", id, doc.Allocated, got)
		}
	}
	// The reallocation itself must have gone through.
	doc, _ := b.Session(narrow)
	if doc.Allocated.CPU != 10 {
		t.Errorf("narrow allocation = %v, want CPU 10", doc.Allocated)
	}
	doc, _ = b.Session(wide)
	if doc.Allocated.CPU != 4 {
		t.Errorf("wide allocation = %v, want CPU 4", doc.Allocated)
	}
}
