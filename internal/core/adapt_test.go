package core

import (
	"errors"
	"math/rand"
	"slices"
	"sort"
	"strconv"
	"testing"

	"gqosm/internal/resource"
)

// paperPlan is the §5.6 partition of the 26 Grid-visible SGI processors:
// C_G = 15, C_A = 6, C_B = 5.
func paperPlan() CapacityPlan {
	return CapacityPlan{
		Guaranteed: resource.Nodes(15),
		Adaptive:   resource.Nodes(6),
		BestEffort: resource.Nodes(5),
	}
}

func newPaperAllocator(t *testing.T) *Allocator {
	t.Helper()
	a, err := NewAllocator(paperPlan())
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// bestEffortHeld sums what best-effort users hold across the three pools.
func bestEffortHeld(a *Allocator) resource.Capacity {
	var sum resource.Capacity
	for _, u := range a.Snapshot() {
		sum = sum.Add(u.BestEffort)
	}
	return sum
}

func TestCapacityPlan(t *testing.T) {
	p := paperPlan()
	if !p.Total().Equal(resource.Nodes(26)) {
		t.Errorf("Total = %v", p.Total())
	}
	if err := p.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
	if err := (CapacityPlan{}).Validate(); err == nil {
		t.Error("empty plan accepted")
	}
	bad := CapacityPlan{Guaranteed: resource.Nodes(-1), Adaptive: resource.Nodes(2)}
	if err := bad.Validate(); err == nil {
		t.Error("negative plan accepted")
	}
	if _, err := NewAllocator(CapacityPlan{}); err == nil {
		t.Error("NewAllocator accepted empty plan")
	}
}

func TestPlanForFailureRate(t *testing.T) {
	p, err := PlanForFailureRate(resource.Nodes(100), 0.2, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if !p.Adaptive.Equal(resource.Nodes(20)) || !p.BestEffort.Equal(resource.Nodes(10)) ||
		!p.Guaranteed.Equal(resource.Nodes(70)) {
		t.Errorf("plan = %+v", p)
	}
	for _, bad := range [][2]float64{{-0.1, 0.1}, {0.5, 0.5}, {0.2, -0.1}} {
		if _, err := PlanForFailureRate(resource.Nodes(10), bad[0], bad[1]); err == nil {
			t.Errorf("PlanForFailureRate(%v) accepted", bad)
		}
	}
}

func TestAllocateGuaranteedWithinG(t *testing.T) {
	a := newPaperAllocator(t)
	res, err := a.AllocateGuaranteed("sla3", resource.Nodes(10), resource.Nodes(10))
	if err != nil {
		t.Fatalf("AllocateGuaranteed: %v", err)
	}
	if !res.Granted.Equal(resource.Nodes(10)) || res.AdaptiveUsed || !res.Shortfall.IsZero() {
		t.Errorf("result = %+v", res)
	}
	if got := a.AvailableGuaranteed(); !got.Equal(resource.Nodes(5)) {
		t.Errorf("AvailableGuaranteed = %v, want 5 (admission bound is nominal C_G)", got)
	}
}

func TestAllocateGuaranteedUsesAdaptOnFailureShortfall(t *testing.T) {
	a := newPaperAllocator(t)
	if _, err := a.AllocateGuaranteed("u1", resource.Nodes(12), resource.Nodes(12)); err != nil {
		t.Fatal(err)
	}
	// Admission never eats the reserve: 12 + 6 = 18 > C_G = 15.
	if _, err := a.AllocateGuaranteed("u2", resource.Nodes(6), resource.Nodes(6)); !errors.Is(err, ErrCannotHonor) {
		t.Fatalf("admission into reserve: err = %v, want ErrCannotHonor", err)
	}
	// With 3 nodes failed (C_G_eff = 12), new demand within nominal C_G
	// is still admitted and the shortfall is covered from C_A: Adapt().
	a.SetOffline(resource.Nodes(3))
	res, err := a.AllocateGuaranteed("u2", resource.Nodes(3), resource.Nodes(3))
	if err != nil {
		t.Fatal(err)
	}
	if !res.AdaptiveUsed {
		t.Error("AdaptiveUsed = false, want true (demand 15 > C_G_eff 12)")
	}
	if !res.Granted.Equal(resource.Nodes(3)) {
		t.Errorf("Granted = %v", res.Granted)
	}
}

func TestAllocateGuaranteedFloorFallback(t *testing.T) {
	a := newPaperAllocator(t)
	if _, err := a.AllocateGuaranteed("u1", resource.Nodes(12), resource.Nodes(12)); err != nil {
		t.Fatal(err)
	}
	// Request 8 (floor 3): 12+8 > C_G=15, but 12+3 = 15 fits → only g(u).
	res, err := a.AllocateGuaranteed("u2", resource.Nodes(8), resource.Nodes(3))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Granted.Equal(resource.Nodes(3)) {
		t.Errorf("Granted = %v, want floor 3", res.Granted)
	}
	if !res.Shortfall.Equal(resource.Nodes(5)) {
		t.Errorf("Shortfall = %v, want 5", res.Shortfall)
	}
	// Even the floor cannot be honored now.
	if _, err := a.AllocateGuaranteed("u3", resource.Nodes(2), resource.Nodes(1)); !errors.Is(err, ErrCannotHonor) {
		t.Errorf("err = %v, want ErrCannotHonor", err)
	}
}

func TestAllocateGuaranteedValidation(t *testing.T) {
	a := newPaperAllocator(t)
	if _, err := a.AllocateGuaranteed("u", resource.Nodes(2), resource.Nodes(5)); err == nil {
		t.Error("floor > request accepted")
	}
	if _, err := a.AllocateGuaranteed("u", resource.Nodes(-2), resource.Nodes(-2)); err == nil {
		t.Error("negative request accepted")
	}
}

func TestReallocateReplacesGrant(t *testing.T) {
	a := newPaperAllocator(t)
	if _, err := a.AllocateGuaranteed("u", resource.Nodes(10), resource.Nodes(4)); err != nil {
		t.Fatal(err)
	}
	if _, err := a.AllocateGuaranteed("u", resource.Nodes(14), resource.Nodes(4)); err != nil {
		t.Fatalf("re-allocate: %v", err)
	}
	got, ok := a.GuaranteedAllocation("u")
	if !ok || !got.Equal(resource.Nodes(14)) {
		t.Errorf("allocation = %v, %v", got, ok)
	}
	// A failed re-allocation keeps the old grant.
	if _, err := a.AllocateGuaranteed("u", resource.Nodes(30), resource.Nodes(30)); !errors.Is(err, ErrCannotHonor) {
		t.Fatalf("err = %v", err)
	}
	got, _ = a.GuaranteedAllocation("u")
	if !got.Equal(resource.Nodes(14)) {
		t.Errorf("allocation after failed realloc = %v", got)
	}
}

func TestBestEffortBorrowsIdleCapacity(t *testing.T) {
	a := newPaperAllocator(t)
	// Nothing running: best effort may use all 26 nodes.
	if got := a.AvailableBestEffort(); !got.Equal(resource.Nodes(26)) {
		t.Errorf("AvailableBestEffort = %v, want 26", got)
	}
	if err := a.AllocateBestEffort("be1", resource.Nodes(11)); err != nil {
		t.Fatalf("AllocateBestEffort: %v", err)
	}
	if err := a.AllocateBestEffort("be2", resource.Nodes(16)); !errors.Is(err, ErrBestEffortFull) {
		t.Fatalf("over-allocate err = %v", err)
	}
	if err := a.AllocateBestEffort("be2", resource.Nodes(15)); err != nil {
		t.Fatal(err)
	}
	if got := a.AvailableBestEffort(); !got.IsZero() {
		t.Errorf("AvailableBestEffort = %v, want 0", got)
	}
}

func TestBestEffortValidation(t *testing.T) {
	a := newPaperAllocator(t)
	if err := a.AllocateBestEffort("be", resource.Capacity{}); err == nil {
		t.Error("zero best-effort request accepted")
	}
	if err := a.AllocateBestEffort("be", resource.Nodes(-1)); err == nil {
		t.Error("negative best-effort request accepted")
	}
	if err := a.ReleaseBestEffort("ghost"); !errors.Is(err, ErrUnknownUser) {
		t.Errorf("release ghost err = %v", err)
	}
	if err := a.ReleaseGuaranteed("ghost"); !errors.Is(err, ErrUnknownUser) {
		t.Errorf("release ghost err = %v", err)
	}
}

func TestGuaranteedPreemptsBestEffortBorrowers(t *testing.T) {
	a := newPaperAllocator(t)
	// Best effort borrows heavily: 20 nodes (5 B + 6 A + 9 G).
	if err := a.AllocateBestEffort("be1", resource.Nodes(12)); err != nil {
		t.Fatal(err)
	}
	if err := a.AllocateBestEffort("be2", resource.Nodes(8)); err != nil {
		t.Fatal(err)
	}
	// A guaranteed request for 10 must reclaim borrowed capacity: after
	// it, best effort may hold only 26 − 10 = 16.
	res, err := a.AllocateGuaranteed("sla3", resource.Nodes(10), resource.Nodes(10))
	if err != nil {
		t.Fatalf("AllocateGuaranteed: %v", err)
	}
	if len(res.Preempted) == 0 {
		t.Fatal("no preemptions reported")
	}
	// LIFO: be2 (newest) loses first — 4 of its 8.
	p := res.Preempted[0]
	if p.User != "be2" || !p.After.Equal(resource.Nodes(4)) || p.Evicted {
		t.Errorf("preemption = %+v", p)
	}
	if be := bestEffortHeld(a); !be.Equal(resource.Nodes(16)) {
		t.Errorf("best effort total = %v, want 16", be)
	}
}

func TestBestEffortFloorNeverTakenByGuaranteed(t *testing.T) {
	a := newPaperAllocator(t)
	// Guaranteed saturates its admission bound C_G = 15 nodes.
	if _, err := a.AllocateGuaranteed("g1", resource.Nodes(15), resource.Nodes(15)); err != nil {
		t.Fatal(err)
	}
	// Guaranteed demand beyond that is rejected — C_B is untouchable.
	if _, err := a.AllocateGuaranteed("g2", resource.Nodes(1), resource.Nodes(1)); !errors.Is(err, ErrCannotHonor) {
		t.Fatalf("err = %v", err)
	}
	// Best-effort users still get their full minimum capacity C_B = 5.
	if err := a.AllocateBestEffort("be", resource.Nodes(5)); err != nil {
		t.Fatalf("best-effort floor unavailable: %v", err)
	}
}

func TestSetOfflineTriggersAdaptation(t *testing.T) {
	// The §5.6 t2 event: SLA3 holds 10 nodes; three C_G processors fail;
	// the guarantee survives by drawing on the adaptive pool.
	a := newPaperAllocator(t)
	if _, err := a.AllocateGuaranteed("sla3", resource.Nodes(14), resource.Nodes(14)); err != nil {
		t.Fatal(err)
	}
	if err := a.AllocateBestEffort("be", resource.Nodes(12)); err != nil {
		t.Fatal(err)
	}
	pre := a.SetOffline(resource.Nodes(3))
	// Guaranteed stays whole.
	g, _ := a.GuaranteedAllocation("sla3")
	if !g.Equal(resource.Nodes(14)) {
		t.Errorf("guaranteed after failure = %v", g)
	}
	// Best effort gives back exactly the lost 3 nodes.
	if be := bestEffortHeld(a); !be.Equal(resource.Nodes(9)) {
		t.Errorf("best effort after failure = %v, want 9", be)
	}
	if len(pre) != 1 || !pre[0].Before.Sub(pre[0].After).Equal(resource.Nodes(3)) {
		t.Errorf("preemptions = %+v", pre)
	}
	snap := a.Snapshot()
	if !snap[0].Offline.Equal(resource.Nodes(3)) {
		t.Errorf("G offline = %v", snap[0].Offline)
	}
	// G holds 12 of guaranteed demand, A the spilled 2.
	if !snap[0].Guaranteed.Equal(resource.Nodes(12)) || !snap[1].Guaranteed.Equal(resource.Nodes(2)) {
		t.Errorf("snapshot G/A guaranteed = %v / %v", snap[0].Guaranteed, snap[1].Guaranteed)
	}

	// Recovery at t3: capacity returns; best effort can re-grow.
	if got := a.SetOffline(resource.Capacity{}); len(got) != 0 {
		t.Errorf("recovery preempted %v", got)
	}
	if err := a.AllocateBestEffort("be-extra", resource.Nodes(3)); err != nil {
		t.Errorf("re-grow after recovery: %v", err)
	}
}

func TestOfflineClampedToG(t *testing.T) {
	a := newPaperAllocator(t)
	a.SetOffline(resource.Nodes(40))
	if got := a.Offline(); !got.Equal(resource.Nodes(15)) {
		t.Errorf("Offline = %v, want clamped to C_G=15", got)
	}
	// With all of C_G down, guaranteed can still get C_A = 6.
	if _, err := a.AllocateGuaranteed("u", resource.Nodes(6), resource.Nodes(6)); err != nil {
		t.Errorf("AllocateGuaranteed under total G failure: %v", err)
	}
	if _, err := a.AllocateGuaranteed("u2", resource.Nodes(1), resource.Nodes(1)); !errors.Is(err, ErrCannotHonor) {
		t.Errorf("err = %v", err)
	}
}

func TestSnapshotAccounting(t *testing.T) {
	a := newPaperAllocator(t)
	if _, err := a.AllocateGuaranteed("g", resource.Nodes(10), resource.Nodes(10)); err != nil {
		t.Fatal(err)
	}
	if err := a.AllocateBestEffort("be", resource.Nodes(11)); err != nil {
		t.Fatal(err)
	}
	snap := a.Snapshot()
	// The §5.6 t0 pattern: best-effort 11 = 5 in B, 5 in idle G, 1 in A.
	if !snap[2].BestEffort.Equal(resource.Nodes(5)) {
		t.Errorf("B best effort = %v", snap[2].BestEffort)
	}
	if !snap[0].BestEffort.Equal(resource.Nodes(5)) {
		t.Errorf("G best effort = %v", snap[0].BestEffort)
	}
	if !snap[1].BestEffort.Equal(resource.Nodes(1)) {
		t.Errorf("A best effort = %v", snap[1].BestEffort)
	}
	if !snap[0].Guaranteed.Equal(resource.Nodes(10)) {
		t.Errorf("G guaranteed = %v", snap[0].Guaranteed)
	}
	if !snap[0].Free().IsZero() {
		t.Errorf("G free = %v", snap[0].Free())
	}
	if !snap[1].Free().Equal(resource.Nodes(5)) {
		t.Errorf("A free = %v", snap[1].Free())
	}
	util := a.Utilization()
	if util.CPU < 0.8 || util.CPU > 0.81 {
		t.Errorf("Utilization = %v, want 21/26", util)
	}
}

func TestReleaseRestoresCapacity(t *testing.T) {
	a := newPaperAllocator(t)
	if _, err := a.AllocateGuaranteed("g", resource.Nodes(15), resource.Nodes(15)); err != nil {
		t.Fatal(err)
	}
	if err := a.ReleaseGuaranteed("g"); err != nil {
		t.Fatal(err)
	}
	if got := a.AvailableGuaranteed(); !got.Equal(resource.Nodes(15)) {
		t.Errorf("AvailableGuaranteed after release = %v", got)
	}
	if users := a.GuaranteedUsers(); len(users) != 0 {
		t.Errorf("GuaranteedUsers = %v", users)
	}
}

// Property: under random traffic the Algorithm-1 invariants hold:
// (1) total allocation never exceeds online capacity;
// (2) guaranteed demand never exceeds C_G_eff + C_A;
// (3) best-effort usage never exceeds C_B + idle A + idle G;
// (4) the snapshot's per-pool usage sums to the per-class totals.
func TestAllocatorInvariantsProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(56))
	a := newPaperAllocator(t)
	gUsers := map[string]bool{}
	beUsers := map[string]bool{}
	for step := 0; step < 4000; step++ {
		switch rng.Intn(6) {
		case 0, 1:
			u := "g" + strconv.Itoa(rng.Intn(8))
			req := float64(1 + rng.Intn(12))
			floor := float64(1 + rng.Intn(int(req)))
			if _, err := a.AllocateGuaranteed(u, resource.Nodes(req), resource.Nodes(floor)); err == nil {
				gUsers[u] = true
			}
		case 2:
			u := "be" + strconv.Itoa(rng.Intn(8))
			if err := a.AllocateBestEffort(u, resource.Nodes(float64(1+rng.Intn(10)))); err == nil {
				beUsers[u] = true
			}
		case 3:
			for u := range gUsers {
				_ = a.ReleaseGuaranteed(u)
				delete(gUsers, u)
				break
			}
		case 4:
			for u := range beUsers {
				_ = a.ReleaseBestEffort(u)
				delete(beUsers, u)
				break
			}
		case 5:
			a.SetOffline(resource.Nodes(float64(rng.Intn(7))))
		}

		snap := a.Snapshot()
		var gTotal, beTotal, online resource.Capacity
		for _, s := range snap {
			gTotal = gTotal.Add(s.Guaranteed)
			beTotal = beTotal.Add(s.BestEffort)
			online = online.Add(s.Capacity.Sub(s.Offline))
		}
		if !gTotal.Add(beTotal).FitsIn(online) {
			t.Fatalf("step %d: allocated %v exceeds online %v", step, gTotal.Add(beTotal), online)
		}
		plan := a.Plan()
		gEff := plan.Guaranteed.Sub(a.Offline())
		if !gTotal.FitsIn(gEff.Add(plan.Adaptive)) {
			t.Fatalf("step %d: guaranteed %v exceeds C_G_eff+C_A", step, gTotal)
		}
		// Per-pool usage must fit the pool.
		for _, s := range snap {
			if !s.Guaranteed.Add(s.BestEffort).FitsIn(s.Capacity.Sub(s.Offline)) {
				t.Fatalf("step %d: pool %s overfull: %+v", step, s.Pool, s)
			}
		}
	}
}

// rebalanceReference is the preemption loop the allocator shipped before
// it relied on the table's order: an index slice sorted by descending Seq.
// It is the reference TestRebalanceMatchesSortedReference holds the
// reverse walk to, and is never called outside tests.
func rebalanceReference(table []BEState, over resource.Capacity) ([]BEState, []Preemption) {
	var out []Preemption
	if over.IsZero() {
		return table, nil
	}
	order := make([]int, len(table))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(i, j int) bool {
		return table[order[i]].Seq > table[order[j]].Seq
	})
	for _, idx := range order {
		if over.IsZero() {
			break
		}
		b := &table[idx]
		cut := b.Granted.Min(over)
		if cut.IsZero() {
			continue
		}
		after := b.Granted.Sub(cut)
		out = append(out, Preemption{User: b.User, Before: b.Granted, After: after, Evicted: after.IsZero()})
		b.Granted = after
		over = over.Sub(cut).ClampMin(resource.Capacity{})
	}
	kept := table[:0]
	for _, b := range table {
		if !b.Granted.IsZero() {
			kept = append(kept, b)
		}
	}
	return kept, out
}

// TestRebalanceMatchesSortedReference drives seeded sequences of
// guaranteed and best-effort grants, releases, SetOffline and ExportAux →
// Restore round trips, and after every operation that can preempt compares
// the allocator's preemptions and best-effort table with what the sorted
// reference makes of the table as it stood before the operation. It also
// holds the premise of the reverse walk: Seq strictly ascends, always.
func TestRebalanceMatchesSortedReference(t *testing.T) {
	// Half-node steps: every sum is exact, so the map-order float sums of
	// guaranteed demand (ROADMAP item 1) cannot move a last bit between the
	// allocator's pass and the reference's.
	amount := func(rng *rand.Rand, max int) resource.Capacity {
		return resource.Nodes(float64(1+rng.Intn(2*max)) / 2)
	}
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		a := newPaperAllocator(t)
		preemptions, restores := 0, 0
		for step := 0; step < 4000; step++ {
			before := slices.Clone(a.bestEffort)
			var got []Preemption
			rebalanced := false
			switch rng.Intn(8) {
			case 0, 1, 2:
				req := amount(rng, 12)
				res, err := a.AllocateGuaranteed("g"+strconv.Itoa(rng.Intn(8)), req, req.Min(amount(rng, 4)))
				got, rebalanced = res.Preempted, err == nil
			case 3, 4:
				_ = a.AllocateBestEffort("be"+strconv.Itoa(rng.Intn(8)), amount(rng, 6))
			case 5:
				if rng.Intn(2) == 0 {
					_ = a.ReleaseGuaranteed("g" + strconv.Itoa(rng.Intn(8)))
				} else {
					_ = a.ReleaseBestEffort("be" + strconv.Itoa(rng.Intn(8)))
				}
			case 6:
				got, rebalanced = a.SetOffline(amount(rng, 8)), true
			case 7:
				offline, be, nextSeq := a.ExportAux()
				fresh := newPaperAllocator(t)
				fresh.Restore(a.guaranteed, offline, be, nextSeq)
				a = fresh
				restores++
			}
			if rebalanced {
				var used resource.Capacity
				for _, b := range before {
					used = used.Add(b.Granted)
				}
				a.mu.Lock()
				over := used.Sub(a.beAvailableLocked()).ClampMin(resource.Capacity{})
				a.mu.Unlock()
				wantTable, want := rebalanceReference(before, over)
				if !slices.Equal(got, want) {
					t.Fatalf("seed %d step %d: preemptions = %+v, reference %+v", seed, step, got, want)
				}
				if !slices.Equal(a.bestEffort, wantTable) {
					t.Fatalf("seed %d step %d: table = %+v, reference %+v", seed, step, a.bestEffort, wantTable)
				}
				preemptions += len(got)
			}
			for i := 1; i < len(a.bestEffort); i++ {
				if a.bestEffort[i-1].Seq >= a.bestEffort[i].Seq {
					t.Fatalf("seed %d step %d: table out of allocation order: %+v", seed, step, a.bestEffort)
				}
			}
		}
		if preemptions == 0 || restores == 0 {
			t.Fatalf("seed %d: %d preemptions, %d restores — the generator exercises nothing", seed, preemptions, restores)
		}
	}
}

func TestCoverage(t *testing.T) {
	a := newPaperAllocator(t)
	// No demand: full coverage.
	full := resource.Capacity{CPU: 1, MemoryMB: 1, DiskGB: 1, BandwidthMbps: 1}
	if got := a.Coverage(); !got.Equal(full) {
		t.Errorf("idle Coverage = %v", got)
	}
	if _, err := a.AllocateGuaranteed("u", resource.Nodes(15), resource.Nodes(15)); err != nil {
		t.Fatal(err)
	}
	// Failure within the reserve: still fully covered.
	a.SetOffline(resource.Nodes(6))
	if got := a.Coverage(); got.CPU != 1 {
		t.Errorf("Coverage with covered failure = %v", got)
	}
	// Failure past the reserve: 9 eff + 6 A = 15... still 1. Push further.
	a.SetOffline(resource.Nodes(12))
	got := a.Coverage()
	want := (15.0 - 12 + 6) / 15 // deliverable 9 of 15
	if got.CPU < want-1e-9 || got.CPU > want+1e-9 {
		t.Errorf("Coverage = %v, want CPU %g", got, want)
	}
	// Other dimensions (no demand) stay at 1.
	if got.MemoryMB != 1 {
		t.Errorf("memory coverage = %g", got.MemoryMB)
	}
}

// TestAdvisoryReadsUsePaperBound pins a skew (ROADMAP 3(v), DESIGN.md
// §16): the published view — AvailableGuaranteed, AdmissionBound,
// LoadFactor — is computed from the paper's bound min(C_G, C_G_eff + C_A)
// whatever policy answers the grants. Under revenue-greedy (bound C_G_eff
// + C_A/2 = 12 here) the reads say "full" one node before the policy
// does, so compensate's stop condition, the controlled-load pre-clamp,
// the optimizer's headroom and the placement pre-filter all reason
// against a bound the active policy does not use. A change that makes
// the reads follow the policy moves every candidate digest: it has to
// change this test and say so.
func TestAdvisoryReadsUsePaperBound(t *testing.T) {
	a, err := NewAllocator(CapacityPlan{
		Guaranteed: resource.Nodes(10), Adaptive: resource.Nodes(4), BestEffort: resource.Nodes(2),
	})
	if err != nil {
		t.Fatal(err)
	}
	greedy, _ := LookupPolicy("revenue-greedy")
	a.SetPolicy(greedy)

	if res, err := a.AllocateGuaranteed("u", resource.Nodes(11), resource.Nodes(11)); err != nil || !res.Granted.Equal(resource.Nodes(11)) {
		t.Fatalf("11 nodes under revenue-greedy: granted %v, err %v; want all 11 (one past C_G)", res.Granted, err)
	}
	if got := a.AvailableGuaranteed(); !got.IsZero() {
		t.Errorf("AvailableGuaranteed = %v, want nothing: the read follows the paper's bound", got)
	}
	if got := a.AdmissionBound(); !got.Equal(resource.Nodes(10)) {
		t.Errorf("AdmissionBound = %v, want the paper's 10 nodes", got)
	}
	if got := a.LoadFactor(); got < 1.1-1e-9 || got > 1.1+1e-9 {
		t.Errorf("LoadFactor = %g, want 1.1 (11 held against the paper's 10)", got)
	}
	// ...and yet the policy still has a node to give.
	if res, err := a.AllocateGuaranteed("v", resource.Nodes(1), resource.Nodes(1)); err != nil || !res.Granted.Equal(resource.Nodes(1)) {
		t.Errorf("1 more node: granted %v, err %v; want it granted although the reads say full", res.Granted, err)
	}
}
