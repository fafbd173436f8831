package core

// This file is the pluggable adaptation-policy layer: the three decision
// families the paper hard-codes — Algorithm-1 partition grants, the §5.3
// optimizer pass, and the scenario-1 degradation-ladder ordering — plus
// intra-domain shard placement, extracted behind one interface so
// candidate heuristics can be swapped in (or consulted in shadow mode,
// see Config.ShadowPolicy) without touching the broker. The registered
// "paper" policy reproduces the historical heuristics bit-for-bit; the
// "revenue-greedy" candidate proves the interface carries weight: it
// admits guaranteed demand into half the adaptive reserve.
//
// Safety: a policy proposes, the allocator disposes. Whatever a
// PartitionGrant answers, the allocator clamps the grant to the hard
// ceiling C_G_eff + C_A (the invariant oracle's guaranteed-overcommit
// bound), so a reckless policy can at worst refuse admissible work —
// never over-commit the partition.

import (
	"fmt"
	"sort"
	"sync"

	"gqosm/internal/resource"
	"gqosm/internal/sla"
)

// GrantKind is a partition policy's admission answer.
type GrantKind int

const (
	// GrantRefuse declines the request outright (ErrCannotHonor).
	GrantRefuse GrantKind = iota
	// GrantFloor grants only the SLA floor g(u), reporting the shortfall.
	GrantFloor
	// GrantRequested grants the full requested capacity c(u,t).
	GrantRequested
)

func (k GrantKind) String() string {
	switch k {
	case GrantRequested:
		return "requested"
	case GrantFloor:
		return "floor"
	}
	return "refuse"
}

// PartitionView is the side-effect-free snapshot of one allocator's
// Algorithm-1 state a partition policy decides over. All fields are
// values — a policy cannot reach live allocator state through it.
type PartitionView struct {
	// Plan is the shard's capacity partition.
	Plan CapacityPlan
	// Offline is the currently failed capacity (charged against C_G).
	Offline resource.Capacity
	// Demand is current guaranteed demand Σ c(u,t), excluding any
	// previous grant held by the requester being (re)admitted.
	Demand resource.Capacity
	// EffectiveG is C_G minus failed capacity.
	EffectiveG resource.Capacity
	// Bound is the paper's admission bound min(C_G, C_G_eff + C_A).
	Bound resource.Capacity
}

// LadderTarget is one candidate rung of a scenario-1 compensation ladder:
// a session willing to be degraded (or terminated) and what degrading it
// recovers.
type LadderTarget struct {
	ID sla.ID
	// Price is the session's current revenue.
	Price float64
	// Recovered is the capacity freed by taking this rung.
	Recovered resource.Capacity
}

// PlacementView describes one shard to a placement policy.
type PlacementView struct {
	Index      int
	LoadFactor float64
	// Bound is the shard's admission ceiling; a floor that does not fit
	// it can never be admitted there.
	Bound resource.Capacity
}

// Policy is one coherent set of adaptation heuristics. Implementations
// must be stateless or internally synchronized (one instance serves every
// shard concurrently), and must treat every argument as read-only except
// the ladder slice CompensationOrder sorts in place.
type Policy interface {
	// Name is the registry key ("paper", "revenue-greedy", …).
	Name() string
	// PartitionGrant answers an Algorithm-1 admission: full request,
	// floor only, or refusal. The allocator clamps the answer to the
	// hard ceiling C_G_eff + C_A before applying it.
	PartitionGrant(v PartitionView, requested, floor resource.Capacity) GrantKind
	// Optimize solves a §5.3 reallocation problem.
	Optimize(p OptProblem) (OptResult, error)
	// CompensationOrder sorts a scenario-1 ladder into the order victims
	// are taken (first element degraded/terminated first). The order
	// must be total and deterministic.
	CompensationOrder(ts []LadderTarget)
	// Place ranks the shards a new admission should try, most attractive
	// first, dropping shards whose bound can never fit floor. The broker
	// applies hint-first and all-hopeless fallback structurally around
	// the ranking.
	Place(views []PlacementView, floor resource.Capacity) []int
}

var (
	policyMu  sync.RWMutex
	policyReg = make(map[string]Policy)
)

// RegisterPolicy adds a policy to the registry; registering a name twice
// is an error so two packages cannot silently fight over it.
func RegisterPolicy(p Policy) error {
	if p == nil || p.Name() == "" {
		return fmt.Errorf("core: policy must have a name")
	}
	policyMu.Lock()
	defer policyMu.Unlock()
	if _, dup := policyReg[p.Name()]; dup {
		return fmt.Errorf("core: policy %q already registered", p.Name())
	}
	policyReg[p.Name()] = p
	return nil
}

// LookupPolicy resolves a registered policy by name.
func LookupPolicy(name string) (Policy, bool) {
	policyMu.RLock()
	defer policyMu.RUnlock()
	p, ok := policyReg[name]
	return p, ok
}

// PolicyNames lists the registered policies, sorted.
func PolicyNames() []string {
	policyMu.RLock()
	defer policyMu.RUnlock()
	out := make([]string, 0, len(policyReg))
	for name := range policyReg {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

func init() {
	for _, p := range []Policy{paperPolicy{}, revenueGreedyPolicy{}} {
		if err := RegisterPolicy(p); err != nil {
			panic(err)
		}
	}
}

// defaultPolicy is the policy every allocator starts with.
var defaultPolicy Policy = paperPolicy{}

// paperPolicy is the paper's own heuristics, verbatim: admission against
// min(C_G, C_G_eff + C_A), Greedy for §5.3, compensation cheapest-first
// by (price, id), placement least-loaded with index tie-break.
type paperPolicy struct{}

func (paperPolicy) Name() string { return "paper" }

func (paperPolicy) PartitionGrant(v PartitionView, requested, floor resource.Capacity) GrantKind {
	switch {
	case v.Demand.Add(requested).FitsIn(v.Bound):
		return GrantRequested
	case v.Demand.Add(floor).FitsIn(v.Bound):
		return GrantFloor
	}
	return GrantRefuse
}

func (paperPolicy) Optimize(p OptProblem) (OptResult, error) { return Greedy(p) }

func (paperPolicy) CompensationOrder(ts []LadderTarget) {
	sort.Slice(ts, func(i, j int) bool {
		if ts[i].Price != ts[j].Price {
			return ts[i].Price < ts[j].Price
		}
		return ts[i].ID < ts[j].ID
	})
}

func (paperPolicy) Place(views []PlacementView, floor resource.Capacity) []int {
	ranked := append([]PlacementView(nil), views...)
	sort.SliceStable(ranked, func(i, j int) bool {
		if ranked[i].LoadFactor != ranked[j].LoadFactor {
			return ranked[i].LoadFactor < ranked[j].LoadFactor
		}
		return ranked[i].Index < ranked[j].Index
	})
	out := make([]int, 0, len(ranked))
	for _, v := range ranked {
		if !floor.FitsIn(v.Bound) {
			continue
		}
		out = append(out, v.Index)
	}
	return out
}

// revenueGreedyPolicy trades failure cushion for admissions: where the
// paper refuses to let NEW agreements consume the adaptive reserve,
// revenue-greedy admits guaranteed demand into half of it — more sessions
// and more revenue in calm weather, less C_A left to absorb failures.
// Always within the allocator's hard ceiling C_G_eff + C_A, so it is
// invariant-clean as an active policy. Everything else is the paper's.
type revenueGreedyPolicy struct{ paperPolicy }

func (revenueGreedyPolicy) Name() string { return "revenue-greedy" }

func (revenueGreedyPolicy) PartitionGrant(v PartitionView, requested, floor resource.Capacity) GrantKind {
	bound := v.EffectiveG.Add(v.Plan.Adaptive.Scale(0.5))
	switch {
	case v.Demand.Add(requested).FitsIn(bound):
		return GrantRequested
	case v.Demand.Add(floor).FitsIn(bound):
		return GrantFloor
	}
	return GrantRefuse
}

// Clone deep-copies the problem so a shadow policy can solve (and even
// mutate) it without reaching the live specs the active pass holds. The
// Services slice and each service's Spec are copied; Rates is a plain
// value.
func (p OptProblem) Clone() OptProblem {
	out := OptProblem{Capacity: p.Capacity}
	if p.Services != nil {
		out.Services = make([]OptService, len(p.Services))
		for i, s := range p.Services {
			s.Spec = s.Spec.Clone()
			out.Services[i] = s
		}
	}
	return out
}

// sameAssignment reports whether two optimizer answers agree: identical
// error disposition and, when both succeeded, identical per-session
// assignments.
func sameAssignment(a OptResult, aerr error, b OptResult, berr error) bool {
	if (aerr != nil) != (berr != nil) {
		return false
	}
	if aerr != nil {
		return true
	}
	if len(a.Assignment) != len(b.Assignment) {
		return false
	}
	for id, c := range a.Assignment {
		if got, ok := b.Assignment[id]; !ok || !got.Equal(c) {
			return false
		}
	}
	return true
}

// sameLadderOrder reports whether two sorted ladders take victims in the
// same sequence.
func sameLadderOrder(a, b []LadderTarget) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].ID != b[i].ID {
			return false
		}
	}
	return true
}

// sameOrder reports whether two placement rankings agree.
func sameOrder(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
