package core

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"gqosm/internal/pricing"
	"gqosm/internal/resource"
	"gqosm/internal/sla"
)

// This file implements the §5.3 resource-allocation optimization: each
// active (controlled-load) service j records acceptable quality levels per
// parameter (range or list), each parameter has a unit rate c_i, and the
// broker selects quality levels to
//
//	maximize  Σ_j Σ_i c_ij · p_ij
//	s.t.      Σ_j p_ij ≤ Cap_i          for every dimension i
//	          p_ij ∈ allowed_ij          for every service j, dimension i
//
// "The AQoS implements this optimization by varying the resource quality
// selection, based on supplied levels of quality in the SLA, which aims to
// maximize overall monetary profit, while maintaining the user's
// acceptable quality."
//
// This is a multidimensional multiple-choice knapsack. Exact solves it by
// branch-and-bound (used for small instances and as the test oracle);
// Greedy is the production heuristic: start every service at its floor and
// repeatedly apply the feasible single-step upgrade of highest profit
// density. Dimensions only meet through the capacity bound of their own
// dimension, so it solves them one at a time (see Greedy).

// OptService is one service's entry in the optimization problem.
type OptService struct {
	ID sla.ID
	// Spec supplies the acceptable quality levels.
	Spec sla.Spec
	// Rates are the per-unit rates c_i for this service's class.
	Rates pricing.Rates
	// RangeSteps discretizes range parameters (default 4 levels).
	RangeSteps int
}

// steps is the discretization applied to the service's range parameters.
func (s OptService) steps() int {
	if s.RangeSteps <= 0 {
		return 4
	}
	return s.RangeSteps
}

// OptProblem is a §5.3 optimization instance.
type OptProblem struct {
	Services []OptService
	// Capacity bounds Σ_j p_ij per dimension.
	Capacity resource.Capacity
}

// OptResult is a solution.
type OptResult struct {
	// Assignment maps each service to its selected quality vector.
	Assignment map[sla.ID]resource.Capacity
	// Profit is Σ_j Σ_i c_ij · p_ij at the assignment.
	Profit float64
}

// ErrInfeasible is returned when even every service at its floor exceeds
// capacity.
var ErrInfeasible = errors.New("core: optimization infeasible at floors")

// levelTable holds every service's candidate quality levels, ascending,
// in one flat slice: the levels of service si in dimension
// resource.Kinds[ki] are flat[off[i]:off[i+1]] with i = si*len(Kinds)+ki
// (empty when the spec has no parameter for that dimension). It is built
// once per solve, so no solver allocates per service.
type levelTable struct {
	flat []float64
	off  []int
}

func (p OptProblem) levels() levelTable {
	n := 0
	for _, s := range p.Services {
		n += len(s.Spec.Params) * max(s.steps(), 2)
	}
	t := levelTable{
		flat: make([]float64, 0, n), // lists longer than the range steps grow it
		off:  make([]int, 1, len(p.Services)*len(resource.Kinds)+1),
	}
	for _, s := range p.Services {
		steps := s.steps()
		for _, k := range resource.Kinds {
			if prm, ok := s.Spec.Params[k]; ok {
				t.flat = prm.AppendChoices(t.flat, steps)
			}
			t.off = append(t.off, len(t.flat))
		}
	}
	return t
}

func (t levelTable) of(si, ki int) []float64 {
	i := si*len(resource.Kinds) + ki
	return t.flat[t.off[i]:t.off[i+1]]
}

// floorsOf returns each service's floor vector and their sum, both in
// p.Services order (so the sum's rounding is the same on every run), and
// verifies feasibility.
func (p OptProblem) floorsOf() ([]resource.Capacity, resource.Capacity, error) {
	floors := make([]resource.Capacity, len(p.Services))
	var sum resource.Capacity
	for i, s := range p.Services {
		floors[i] = s.Spec.Floor()
		sum = sum.Add(floors[i])
	}
	if !sum.FitsIn(p.Capacity) {
		return nil, resource.Capacity{}, fmt.Errorf("%w: floors need %v, capacity %v", ErrInfeasible, sum, p.Capacity)
	}
	return floors, sum, nil
}

// result keys a per-service assignment (p.Services order) by SLA ID and
// totals its profit.
func (p OptProblem) result(assign []resource.Capacity) OptResult {
	res := OptResult{Assignment: make(map[sla.ID]resource.Capacity, len(p.Services))}
	for i, s := range p.Services {
		res.Assignment[s.ID] = assign[i]
		res.Profit += s.Rates.Cost(assign[i])
	}
	return res
}

// candidate is one service's pending upgrade within the dimension Greedy
// is solving: the next level above its current one.
type candidate struct {
	next    int     // index of that level in the service's levels; -1 = none left
	delta   float64 // capacity the upgrade consumes
	density float64 // profit per unit of capacity
}

// nextCandidate finds the first level at or after levels[from] that lies
// above cur. A step whose gain does not clear Epsilon is no candidate, and
// since only a pick moves cur, the service then stays where it is.
//
// density is deliberately (rate*delta)/delta, not rate: the two differ in
// the last bits, the pick order under binding capacity depends on those
// bits, and the committed digests depend on the pick order.
func nextCandidate(levels []float64, from int, cur, rate float64) candidate {
	for i := from; i < len(levels); i++ {
		lv := levels[i]
		if lv <= cur+resource.Epsilon {
			continue
		}
		delta := lv - cur
		gain := rate * delta
		if gain > resource.Epsilon {
			return candidate{next: i, delta: delta, density: gain / delta}
		}
		break
	}
	return candidate{next: -1}
}

// Greedy solves the problem heuristically: every service starts at its
// floor, then the feasible single-step upgrade of highest profit density
// is applied until none is left (ties go to the earlier service).
//
// An upgrade in one dimension changes nothing another dimension reads, so
// each dimension is solved on its own with one candidate per service: scan
// the candidates for the densest one that fits, apply it, recompute only
// that service's candidate. Used capacity only grows, so a candidate that
// stops fitting is dropped for good. With S services, K dimensions and L
// levels per parameter that is at most S·L picks of an O(S) scan per
// dimension — O(K·S²·L) comparisons, O(K·S·L) candidate updates — and a
// fixed handful of allocations.
func Greedy(p OptProblem) (OptResult, error) {
	assign, used, err := p.floorsOf()
	if err != nil {
		return OptResult{}, err
	}
	table := p.levels()
	cands := make([]candidate, len(p.Services))
	for ki, k := range resource.Kinds {
		usedK, limit := used.Get(k), p.Capacity.Get(k)+resource.Epsilon
		for si, s := range p.Services {
			cands[si] = nextCandidate(table.of(si, ki), 0, assign[si].Get(k), s.Rates.Rate(k))
		}
		for {
			best, bestDensity := -1, -1.0
			for si := range cands {
				c := &cands[si]
				if c.next < 0 {
					continue
				}
				if usedK+c.delta > limit {
					c.next = -1
					continue
				}
				if c.density > bestDensity {
					best, bestDensity = si, c.density
				}
			}
			if best < 0 {
				break
			}
			c, levels := cands[best], table.of(best, ki)
			to := levels[c.next]
			assign[best] = assign[best].With(k, to)
			usedK += c.delta
			cands[best] = nextCandidate(levels, c.next+1, to, p.Services[best].Rates.Rate(k))
		}
	}
	return p.result(assign), nil
}

// exactLimit bounds the instance size Exact accepts; beyond it the search
// space explodes and callers should use Greedy.
const exactLimit = 14

// Exact solves the problem optimally by depth-first branch-and-bound over
// per-service quality combinations. It returns an error for instances with
// more than exactLimit services.
func Exact(p OptProblem) (OptResult, error) {
	if len(p.Services) > exactLimit {
		return OptResult{}, fmt.Errorf("core: Exact limited to %d services, got %d", exactLimit, len(p.Services))
	}
	if _, _, err := p.floorsOf(); err != nil {
		return OptResult{}, err
	}
	table := p.levels()

	// Enumerate each service's candidate vectors (cartesian product of
	// per-dimension choices), deduplicated and sorted by descending
	// profit.
	type cand struct {
		cap    resource.Capacity
		profit float64
	}
	svcCands := make([][]cand, len(p.Services))
	for si, s := range p.Services {
		vectors := []resource.Capacity{{}}
		for ki, k := range resource.Kinds {
			if _, ok := s.Spec.Params[k]; !ok {
				continue
			}
			var next []resource.Capacity
			for _, v := range vectors {
				for _, lv := range table.of(si, ki) {
					next = append(next, v.With(k, lv))
				}
			}
			vectors = next
		}
		cands := make([]cand, 0, len(vectors))
		for _, v := range vectors {
			cands = append(cands, cand{cap: v, profit: s.Rates.Cost(v)})
		}
		sort.Slice(cands, func(i, j int) bool { return cands[i].profit > cands[j].profit })
		svcCands[si] = cands
	}

	// maxRemaining[i] = Σ_{j ≥ i} best profit of service j (capacity
	// ignored) — the bound for pruning.
	maxRemaining := make([]float64, len(p.Services)+1)
	for i := len(p.Services) - 1; i >= 0; i-- {
		maxRemaining[i] = maxRemaining[i+1]
		if len(svcCands[i]) > 0 {
			maxRemaining[i] += svcCands[i][0].profit
		}
	}

	var (
		bestProfit = math.Inf(-1)
		bestPick   = make([]int, len(p.Services))
		pick       = make([]int, len(p.Services))
	)
	var dfs func(i int, used resource.Capacity, profit float64) bool
	dfs = func(i int, used resource.Capacity, profit float64) bool {
		if profit+maxRemaining[i] <= bestProfit+1e-12 {
			return false
		}
		if i == len(p.Services) {
			if profit > bestProfit {
				bestProfit = profit
				copy(bestPick, pick)
			}
			return false
		}
		feasibleFound := false
		for ci, c := range svcCands[i] {
			nu := used.Add(c.cap)
			if !nu.FitsIn(p.Capacity) {
				continue
			}
			feasibleFound = true
			pick[i] = ci
			dfs(i+1, nu, profit+c.profit)
		}
		return feasibleFound
	}
	dfs(0, resource.Capacity{}, 0)

	if math.IsInf(bestProfit, -1) {
		return OptResult{}, ErrInfeasible
	}
	res := OptResult{Assignment: make(map[sla.ID]resource.Capacity, len(p.Services)), Profit: bestProfit}
	for si, s := range p.Services {
		res.Assignment[s.ID] = svcCands[si][bestPick[si]].cap
	}
	return res, nil
}

// Baselines for the C4 experiment.

// BaselineMinimum assigns every service its floor — a provider that never
// upgrades anyone.
func BaselineMinimum(p OptProblem) (OptResult, error) {
	floors, _, err := p.floorsOf()
	if err != nil {
		return OptResult{}, err
	}
	return p.result(floors), nil
}

// BaselineFirstFit walks services in arrival order giving each its best
// quality that still fits — a provider with no global view.
func BaselineFirstFit(p OptProblem) (OptResult, error) {
	// Reserve every floor first so later services are not starved below
	// their SLA.
	assign, used, err := p.floorsOf()
	if err != nil {
		return OptResult{}, err
	}
	table := p.levels()
	for si := range p.Services {
		cur := assign[si]
		for ki, k := range resource.Kinds {
			levels := table.of(si, ki)
			// Highest level that fits.
			for i := len(levels) - 1; i >= 0; i-- {
				lv := levels[i]
				if lv <= cur.Get(k) {
					break
				}
				delta := lv - cur.Get(k)
				if used.Get(k)+delta <= p.Capacity.Get(k)+resource.Epsilon {
					used = used.With(k, used.Get(k)+delta)
					cur = cur.With(k, lv)
					break
				}
			}
		}
		assign[si] = cur
	}
	return p.result(assign), nil
}
