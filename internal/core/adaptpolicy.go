package core

// This file is the adaptation-policy seam. The paper hard-codes its
// heuristics; the one a candidate has ever changed — the Algorithm-1
// partition grant — sits behind Policy so a candidate can be made active
// or consulted in shadow (Config.ShadowPolicy) without touching the
// broker. The "paper" policy is the historical admission rule bit for
// bit; "revenue-greedy" admits guaranteed demand into half the adaptive
// reserve. The §5.3 optimizer (Greedy) and the scenario-1 ladder order
// (cheapestFirst) are plain functions.
//
// Safety: a policy proposes, the allocator disposes. Whatever a
// PartitionGrant answers, the allocator clamps the grant to the hard
// ceiling C_G_eff + C_A (the invariant oracle's guaranteed-overcommit
// bound), so a reckless policy can at worst refuse admissible work —
// never over-commit the partition. And a policy cannot reach live state:
// everything that crosses the seam is a value (PartitionView and two
// resource.Capacity), which TestPolicySeamCarriesOnlyValues holds.

import "gqosm/internal/resource"

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
	// Plan is the allocator's capacity partition.
	Plan CapacityPlan
	// Demand is current guaranteed demand Σ c(u,t), excluding any
	// previous grant held by the requester being (re)admitted.
	Demand resource.Capacity
	// EffectiveG is C_G minus failed capacity.
	EffectiveG resource.Capacity
	// Bound is the paper's admission bound min(C_G, C_G_eff + C_A).
	Bound resource.Capacity
}

// Policy is one Algorithm-1 admission rule. Implementations must be
// stateless or internally synchronized: one instance serves every
// broker of a process concurrently.
type Policy interface {
	// Name is the table key ("paper", "revenue-greedy").
	Name() string
	// PartitionGrant answers an Algorithm-1 admission: full request,
	// floor only, or refusal. The allocator clamps the answer to the
	// hard ceiling C_G_eff + C_A before applying it.
	PartitionGrant(v PartitionView, requested, floor resource.Capacity) GrantKind
}

// policies is the table of shipped policies, in the order PolicyNames
// reports them. The first is the default.
var policies = []Policy{paperPolicy{}, revenueGreedyPolicy{}}

// LookupPolicy resolves a policy by name.
func LookupPolicy(name string) (Policy, bool) {
	for _, p := range policies {
		if p.Name() == name {
			return p, true
		}
	}
	return nil, false
}

// PolicyNames lists the policies in table order.
func PolicyNames() []string {
	out := make([]string, len(policies))
	for i, p := range policies {
		out[i] = p.Name()
	}
	return out
}

// grantWithin is Algorithm 1's three-way answer against one bound: the
// full request if demand stays within it, else the floor, else nothing.
func grantWithin(bound resource.Capacity, v PartitionView, requested, floor resource.Capacity) GrantKind {
	switch {
	case v.Demand.Add(requested).FitsIn(bound):
		return GrantRequested
	case v.Demand.Add(floor).FitsIn(bound):
		return GrantFloor
	}
	return GrantRefuse
}

// paperPolicy is the paper's admission rule, verbatim: guaranteed demand
// is admitted against min(C_G, C_G_eff + C_A).
type paperPolicy struct{}

func (paperPolicy) Name() string { return "paper" }

func (paperPolicy) PartitionGrant(v PartitionView, requested, floor resource.Capacity) GrantKind {
	return grantWithin(v.Bound, v, requested, floor)
}

// revenueGreedyPolicy trades failure cushion for admissions: where the
// paper refuses to let NEW agreements consume the adaptive reserve,
// revenue-greedy admits guaranteed demand into half of it — more sessions
// and more revenue in calm weather, less C_A left to absorb failures.
// Always within the allocator's hard ceiling C_G_eff + C_A, so it is
// invariant-clean as an active policy.
type revenueGreedyPolicy struct{}

func (revenueGreedyPolicy) Name() string { return "revenue-greedy" }

func (revenueGreedyPolicy) PartitionGrant(v PartitionView, requested, floor resource.Capacity) GrantKind {
	return grantWithin(v.EffectiveG.Add(v.Plan.Adaptive.Scale(0.5)), v, requested, floor)
}
