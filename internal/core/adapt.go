// Package core implements the paper's primary contribution: the AQoS
// broker of the G-QoSM framework, with the QoS adaptation scheme of §5 —
// the capacity-partition adaptation algorithm (Algorithm 1), the
// resource-allocation optimization heuristic (§5.3), the three adaptation
// scenarios (§4), SLA negotiation and establishment, the Reservation
// System over GARA (§3.1), and SLA-Verif conformance monitoring (§3.2).
package core

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"gqosm/internal/resource"
)

// CapacityPlan is the administrator's partition of the total resource
// capacity (Algorithm 1): R = C_G + C_A + C_B, where C_G serves
// 'guaranteed' users, C_A is the adaptive reserve "based on the specified
// rate of resource failure or congestion", and C_B is the minimum capacity
// for 'best effort' users.
type CapacityPlan struct {
	Guaranteed resource.Capacity // C_G
	Adaptive   resource.Capacity // C_A
	BestEffort resource.Capacity // C_B
}

// Total returns R = C_G + C_A + C_B.
func (p CapacityPlan) Total() resource.Capacity {
	return p.Guaranteed.Add(p.Adaptive).Add(p.BestEffort)
}

// Validate checks the partition.
func (p CapacityPlan) Validate() error {
	if !p.Guaranteed.IsNonNegative() || !p.Adaptive.IsNonNegative() || !p.BestEffort.IsNonNegative() {
		return errors.New("core: capacity plan has negative components")
	}
	if p.Total().IsZero() {
		return errors.New("core: capacity plan is empty")
	}
	return nil
}

// PlanForFailureRate sizes the adaptive reserve from the administrator's
// expected failure/congestion rate f (fraction of total capacity expected
// to be unavailable) and best-effort minimum fraction b, dividing total as
// C_A = f·R, C_B = b·R, C_G = the rest.
func PlanForFailureRate(total resource.Capacity, failureRate, bestEffortFrac float64) (CapacityPlan, error) {
	if failureRate < 0 || bestEffortFrac < 0 || failureRate+bestEffortFrac >= 1 {
		return CapacityPlan{}, fmt.Errorf("core: invalid fractions f=%g b=%g", failureRate, bestEffortFrac)
	}
	a := total.Scale(failureRate)
	b := total.Scale(bestEffortFrac)
	return CapacityPlan{
		Guaranteed: total.Sub(a).Sub(b),
		Adaptive:   a,
		BestEffort: b,
	}, nil
}

// Allocator errors.
var (
	// ErrCannotHonor is returned when even the SLA floor g(u) cannot be
	// allocated ("guarantees cannot be honored").
	ErrCannotHonor = errors.New("core: guaranteed capacity cannot be honored")
	// ErrBestEffortFull is returned when a best-effort request exceeds
	// the borrowable capacity.
	ErrBestEffortFull = errors.New("core: best-effort capacity exhausted")
	// ErrUnknownUser is returned for releases of unknown allocations.
	ErrUnknownUser = errors.New("core: unknown allocation")
)

// Preemption records a reduction of a best-effort allocation caused by
// guaranteed-class demand reclaiming borrowed capacity.
type Preemption struct {
	User    string
	Before  resource.Capacity
	After   resource.Capacity
	Evicted bool // the allocation was removed entirely
}

// GrantResult reports the outcome of a guaranteed allocation.
type GrantResult struct {
	// Granted is the capacity actually allocated (== requested, or the
	// SLA floor when the full request could not be honored).
	Granted resource.Capacity
	// Shortfall is the unsatisfied remainder (requested − granted).
	Shortfall resource.Capacity
	// AdaptiveUsed reports whether the grant draws on the adaptive
	// reserve (i.e. Adapt() ran).
	AdaptiveUsed bool
	// Preempted lists best-effort allocations reduced to make room.
	Preempted []Preemption
}

// Allocator is the Algorithm-1 engine: it tracks instantaneous capacity
// allocations c(u,t) for guaranteed users and b(u,t) for best-effort
// users against the partition, implements Adapt(), and enforces the
// dynamic-borrowing policy ("the extra reserved capacity is used by 'best
// effort' users as long as it is not needed by 'guaranteed' users"). It is
// safe for concurrent use.
type Allocator struct {
	plan CapacityPlan

	mu         sync.Mutex
	offline    resource.Capacity // failed capacity, charged against C_G
	guaranteed map[string]resource.Capacity
	// bestEffort is in allocation order: Seq strictly ascends, because a
	// grant appends nextSeq+1 and nothing ever reorders the rows.
	bestEffort []BEState
	nextSeq    int

	// policy answers Algorithm-1 admissions (never nil; NewAllocator
	// installs the paper default). shadow, when set, is consulted on the
	// same immutable PartitionView at every admission; onShadow records
	// whether its (clamped) answer diverged. Both are read under mu.
	policy   Policy
	shadow   Policy
	onShadow func(diverged bool)

	// view is the atomically published read snapshot: every mutator
	// recomputes it under mu just before unlocking, so read methods
	// (Snapshot, Utilization, LoadFactor, AvailableGuaranteed,
	// AdmissionBound, AvailableBestEffort, Coverage, Offline) serve
	// lock-free without ever contending with admissions. The values are
	// computed by the same locked helpers the admission path uses — a
	// full recomputation, never an incremental float sum — so a
	// happens-after read returns bit-identical results to the locked
	// path (the post-drain exact-equality checks depend on this).
	//
	// Admission decisions themselves (AllocateGuaranteed and friends)
	// still read the authoritative state under mu; the view only feeds
	// advisory reads — placement ranking, quality pre-clamping, metric
	// gauges — whose outcomes admission re-validates under the lock.
	view atomic.Pointer[allocView]
}

// allocView is one immutable published snapshot of every derived
// read-side quantity. [3]PoolUsage keeps the whole view in a single
// allocation.
type allocView struct {
	pools       [3]PoolUsage // G, A, B — the Snapshot() rows
	utilization resource.Capacity
	loadFactor  float64
	availG      resource.Capacity
	bound       resource.Capacity
	availBE     resource.Capacity
	coverage    resource.Capacity
	offline     resource.Capacity
}

// publishLocked recomputes and atomically publishes the read view.
// Callers must hold a.mu; every mutating operation calls it after its
// last state change so the published view is never stale with respect
// to a happens-after reader.
func (a *Allocator) publishLocked() {
	v := &allocView{offline: a.offline}

	gEff := a.effectiveGLocked()
	gDemand := a.gDemandLocked()
	bound := a.gBoundLocked()
	be := a.beUsedLocked()

	// Snapshot rows (see Snapshot for the accounting rule).
	gInG := gDemand.Min(gEff)
	gInA := a.adaptiveUsedLocked()
	beInB := be.Min(a.plan.BestEffort)
	rem := be.Sub(beInB).ClampMin(resource.Capacity{})
	freeG := gEff.Sub(gInG).ClampMin(resource.Capacity{})
	beInG := rem.Min(freeG)
	beInA := rem.Sub(beInG).ClampMin(resource.Capacity{})
	v.pools = [3]PoolUsage{
		{Pool: "G", Capacity: a.plan.Guaranteed, Offline: a.offline, Guaranteed: gInG, BestEffort: beInG},
		{Pool: "A", Capacity: a.plan.Adaptive, Guaranteed: gInA, BestEffort: beInA},
		{Pool: "B", Capacity: a.plan.BestEffort, BestEffort: beInB},
	}

	// Utilization: used / online per dimension.
	online := a.plan.Total().Sub(a.offline)
	used := gDemand.Add(be)
	for _, k := range resource.Kinds {
		if online.Get(k) > resource.Epsilon {
			v.utilization = v.utilization.With(k, used.Get(k)/online.Get(k))
		}
	}

	// Load factor: max over dimensions of demand / bound.
	for _, k := range resource.Kinds {
		if bk := bound.Get(k); bk > resource.Epsilon {
			if f := gDemand.Get(k) / bk; f > v.loadFactor {
				v.loadFactor = f
			}
		}
	}

	v.availG = bound.Sub(gDemand).ClampMin(resource.Capacity{})
	v.bound = bound
	v.availBE = a.beAvailableLocked().Sub(be).ClampMin(resource.Capacity{})

	// Coverage: min(1, deliverable / demand) per dimension.
	deliverable := gEff.Add(a.plan.Adaptive)
	v.coverage = resource.Capacity{CPU: 1, MemoryMB: 1, DiskGB: 1, BandwidthMbps: 1}
	for _, k := range resource.Kinds {
		if d := gDemand.Get(k); d > resource.Epsilon {
			if ratio := deliverable.Get(k) / d; ratio < 1 {
				v.coverage = v.coverage.With(k, ratio)
			}
		}
	}

	a.view.Store(v)
}

// NewAllocator returns an allocator over the given plan.
func NewAllocator(plan CapacityPlan) (*Allocator, error) {
	if err := plan.Validate(); err != nil {
		return nil, err
	}
	a := &Allocator{
		plan:       plan,
		policy:     paperPolicy{},
		guaranteed: make(map[string]resource.Capacity),
	}
	a.publishLocked() // no concurrency yet; publish the idle view
	return a, nil
}

// SetPolicy installs the active partition policy in place of the paper
// default. Call before serving traffic.
func (a *Allocator) SetPolicy(p Policy) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.policy = p
}

// SetShadow installs a candidate policy consulted in shadow at every
// admission; record receives each consultation's divergence verdict.
// Record must be cheap and must not call back into the allocator: it
// runs under a.mu.
func (a *Allocator) SetShadow(p Policy, record func(diverged bool)) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.shadow, a.onShadow = p, record
}

// Plan returns the partition.
func (a *Allocator) Plan() CapacityPlan { return a.plan }

// BEState is one best-effort grant row, b(u,t). The table's order is the
// allocation order — preemption walks it backwards — so durability
// snapshots carry it bit-exactly across recovery.
type BEState struct {
	User    string
	Granted resource.Capacity
	Seq     int
}

// ExportAux returns the allocator state that cannot be rebuilt from the
// session documents alone: failed capacity, the best-effort table in
// allocation order, and the preemption-order counter.
func (a *Allocator) ExportAux() (offline resource.Capacity, be []BEState, nextSeq int) {
	a.mu.Lock()
	defer a.mu.Unlock()
	be = make([]BEState, len(a.bestEffort)) // never nil: digests marshal it
	copy(be, a.bestEffort)
	return a.offline, be, a.nextSeq
}

// Restore overwrites the allocator's full state from recovered data and
// republishes the read view. The guaranteed map comes from the replayed
// session documents; the auxiliary state from the latest journaled
// ExportAux image. No feasibility re-check happens here — the
// recovered state was feasible when journaled, and the invariant oracle
// re-verifies after recovery.
func (a *Allocator) Restore(guaranteed map[string]resource.Capacity, offline resource.Capacity, be []BEState, nextSeq int) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.guaranteed = make(map[string]resource.Capacity, len(guaranteed))
	for u, c := range guaranteed {
		a.guaranteed[u] = c
	}
	a.offline = offline.Min(a.plan.Guaranteed).ClampMin(resource.Capacity{})
	a.bestEffort = slices.Clone(be)
	a.nextSeq = nextSeq
	a.publishLocked()
}

// SetOffline marks capacity as failed/inaccessible (the §5.6 t2 event).
// Failures are charged against the guaranteed pool C_G — the case the
// adaptive reserve exists to absorb. Existing guaranteed grants are never
// reduced by failures (their SLAs are honored from C_A via Adapt());
// best-effort borrowers are preempted as needed. The returned preemptions
// describe the best-effort reductions.
func (a *Allocator) SetOffline(c resource.Capacity) []Preemption {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.offline = c.Min(a.plan.Guaranteed).ClampMin(resource.Capacity{})
	out := a.rebalanceLocked()
	a.publishLocked()
	return out
}

// Offline returns the currently failed capacity.
func (a *Allocator) Offline() resource.Capacity {
	return a.view.Load().offline
}

// effectiveG returns C_G minus failed capacity.
func (a *Allocator) effectiveGLocked() resource.Capacity {
	return a.plan.Guaranteed.Sub(a.offline).ClampMin(resource.Capacity{})
}

func (a *Allocator) gDemandLocked() resource.Capacity {
	var sum resource.Capacity
	for _, c := range a.guaranteed {
		sum = sum.Add(c)
	}
	return sum
}

func (a *Allocator) beUsedLocked() resource.Capacity {
	var sum resource.Capacity
	for _, b := range a.bestEffort {
		sum = sum.Add(b.Granted)
	}
	return sum
}

// adaptiveUsedLocked is the portion of guaranteed demand spilling past
// C_G_eff into C_A — the Adapt() transfer of Algorithm 1.
func (a *Allocator) adaptiveUsedLocked() resource.Capacity {
	return a.gDemandLocked().Sub(a.effectiveGLocked()).ClampMin(resource.Capacity{}).Min(a.plan.Adaptive)
}

// beAvailableLocked is the capacity best-effort users may hold: their own
// C_B, plus the adaptive reserve not needed by guaranteed users, plus idle
// guaranteed capacity (dynamic borrowing).
func (a *Allocator) beAvailableLocked() resource.Capacity {
	gEff := a.effectiveGLocked()
	gDemand := a.gDemandLocked()
	freeG := gEff.Sub(gDemand).ClampMin(resource.Capacity{})
	freeA := a.plan.Adaptive.Sub(a.adaptiveUsedLocked()).ClampMin(resource.Capacity{})
	return a.plan.BestEffort.Add(freeA).Add(freeG)
}

// gBoundLocked is the admission bound for guaranteed demand:
// min(C_G, C_G_eff + C_A) per dimension. New agreements never consume the
// adaptive reserve — it exists "based on the specified rate of resource
// failure or congestion" to give guaranteed users "extra assurances" — but
// when failures shrink C_G the reserve covers already-admitted demand
// (Adapt()), so admission up to nominal C_G continues as long as the
// shortfall stays within C_A.
func (a *Allocator) gBoundLocked() resource.Capacity {
	return a.plan.Guaranteed.Min(a.effectiveGLocked().Add(a.plan.Adaptive))
}

// AllocateGuaranteed implements Allocate_Guaranteed_Resource(c(u,t),
// g(u)): it grants the requested capacity when guaranteed demand stays
// within the admission bound (nominal C_G, with failure shortfalls covered
// from the adaptive reserve via Adapt()); otherwise it grants only the SLA
// floor g(u) and reports the shortfall. It fails with ErrCannotHonor when
// even g(u) does not fit. Re-allocating for an existing user replaces the
// previous grant. floor must fit in requested.
func (a *Allocator) AllocateGuaranteed(user string, requested, floor resource.Capacity) (GrantResult, error) {
	if !floor.FitsIn(requested) {
		return GrantResult{}, fmt.Errorf("core: floor %v exceeds request %v", floor, requested)
	}
	if !requested.IsNonNegative() {
		return GrantResult{}, fmt.Errorf("core: negative request %v", requested)
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	res, err := a.allocateGuaranteedLocked(user, requested, floor)
	if err != nil {
		return GrantResult{}, err
	}
	res.Preempted = a.rebalanceLocked()
	a.publishLocked()
	return res, nil
}

// allocateGuaranteedLocked is the Algorithm-1 admission core shared by
// AllocateGuaranteed and AllocateGuaranteedBatch. The caller holds a.mu
// and is responsible for running rebalanceLocked + publishLocked after
// its grant(s) — that is exactly what the batch path amortizes.
func (a *Allocator) allocateGuaranteedLocked(user string, requested, floor resource.Capacity) (GrantResult, error) {
	prev, hadPrev := a.guaranteed[user]
	base := a.gDemandLocked()
	if hadPrev {
		base = base.Sub(prev)
	}
	gEff := a.effectiveGLocked()
	bound := a.gBoundLocked()

	view := PartitionView{
		Plan:       a.plan,
		Offline:    a.offline,
		Demand:     base,
		EffectiveG: gEff,
		Bound:      bound,
	}
	kind := clampGrant(a.policy.PartitionGrant(view, requested, floor), view, requested, floor)
	if a.shadow != nil {
		cand := clampGrant(a.shadow.PartitionGrant(view, requested, floor), view, requested, floor)
		a.onShadow(cand != kind)
	}

	var res GrantResult
	switch kind {
	case GrantRequested:
		// Σ c(u,t) ≤ C_G: "c(u,t) capacity must be given". When
		// failures leave Σ c(u,t) > C_G_eff, Adapt() transfers
		// min(C_A, −net) from A to G — the grant stands either way.
		res.Granted = requested
		res.AdaptiveUsed = !base.Add(requested).FitsIn(gEff)
	case GrantFloor:
		// The full request exceeds the admission bound: "only g(u)
		// capacity is given"; the rest is the caller's to re-request
		// later.
		res.Granted = floor
		res.Shortfall = requested.Sub(floor)
		res.AdaptiveUsed = !base.Add(floor).FitsIn(gEff)
	default:
		if hadPrev {
			// Leave the previous grant untouched.
			return GrantResult{}, fmt.Errorf("%w: user %s needs %v, only %v guaranteed-capacity available",
				ErrCannotHonor, user, floor, bound.Sub(base).ClampMin(resource.Capacity{}))
		}
		return GrantResult{}, fmt.Errorf("%w: user %s needs floor %v, only %v available",
			ErrCannotHonor, user, floor, bound.Sub(base).ClampMin(resource.Capacity{}))
	}

	a.guaranteed[user] = res.Granted
	return res, nil
}

// clampGrant demotes a policy's admission answer until it respects the
// hard ceiling C_G_eff + C_A — the most the shard can physically deliver
// to guaranteed demand (the invariant oracle's per-shard bound). The
// paper policy's own bound is a subset of the ceiling, so its answers
// pass through unchanged; an aggressive candidate can at most be walked
// down requested → floor → refuse.
func clampGrant(kind GrantKind, v PartitionView, requested, floor resource.Capacity) GrantKind {
	ceiling := v.EffectiveG.Add(v.Plan.Adaptive)
	if kind == GrantRequested && !v.Demand.Add(requested).FitsIn(ceiling) {
		kind = GrantFloor
	}
	if kind == GrantFloor && !v.Demand.Add(floor).FitsIn(ceiling) {
		kind = GrantRefuse
	}
	return kind
}

// GuaranteedAsk is one member of a batch admission (see
// AllocateGuaranteedBatch), which fills in Grant or Err.
type GuaranteedAsk struct {
	User      string
	Requested resource.Capacity
	Floor     resource.Capacity

	Grant GrantResult
	Err   error
}

// AllocateGuaranteedBatch admits asks in order under ONE critical
// section — the group-commit admission pass. Each ask receives exactly
// the grant a sequence of individual AllocateGuaranteed calls would
// have produced (the book updates between members), but the
// per-admission lock acquisition, best-effort rebalance and read-view
// publication are paid once per batch instead of once per request.
// Each ask's Grant / Err report its outcome; failed members
// (ErrCannotHonor, validation) leave the book untouched. The single
// rebalance's preemptions are returned in aggregate rather than
// attached to any one grant (every grant's Preempted field is nil).
func (a *Allocator) AllocateGuaranteedBatch(asks []GuaranteedAsk) (preempted []Preemption) {
	a.mu.Lock()
	defer a.mu.Unlock()
	granted := false
	for i := range asks {
		ask := &asks[i]
		switch {
		case !ask.Floor.FitsIn(ask.Requested):
			ask.Err = fmt.Errorf("core: floor %v exceeds request %v", ask.Floor, ask.Requested)
		case !ask.Requested.IsNonNegative():
			ask.Err = fmt.Errorf("core: negative request %v", ask.Requested)
		default:
			ask.Grant, ask.Err = a.allocateGuaranteedLocked(ask.User, ask.Requested, ask.Floor)
			granted = granted || ask.Err == nil
		}
	}
	if granted {
		preempted = a.rebalanceLocked()
		a.publishLocked()
	}
	return preempted
}

// ReleaseGuaranteed frees a guaranteed user's allocation (service
// termination — scenario 2's trigger).
func (a *Allocator) ReleaseGuaranteed(user string) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if _, ok := a.guaranteed[user]; !ok {
		return fmt.Errorf("%w: guaranteed %q", ErrUnknownUser, user)
	}
	delete(a.guaranteed, user)
	a.publishLocked()
	return nil
}

// AllocateBestEffort implements Allocate_Best_Effort_Resource(b(u,t)):
// the request is granted iff it fits in C_B plus currently idle
// adaptive/guaranteed capacity; otherwise "cannot allocate the required
// capacity".
func (a *Allocator) AllocateBestEffort(user string, requested resource.Capacity) error {
	if !requested.IsNonNegative() || requested.IsZero() {
		return fmt.Errorf("core: bad best-effort request %v", requested)
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	avail := a.beAvailableLocked().Sub(a.beUsedLocked())
	if !requested.FitsIn(avail) {
		return fmt.Errorf("%w: requested %v, available %v", ErrBestEffortFull, requested, avail)
	}
	a.nextSeq++
	a.bestEffort = append(a.bestEffort, BEState{User: user, Granted: requested, Seq: a.nextSeq})
	a.publishLocked()
	return nil
}

// ReleaseBestEffort frees a best-effort user's allocations.
func (a *Allocator) ReleaseBestEffort(user string) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	kept := a.bestEffort[:0]
	found := false
	for _, b := range a.bestEffort {
		if b.User == user {
			found = true
			continue
		}
		kept = append(kept, b)
	}
	a.bestEffort = kept
	if !found {
		return fmt.Errorf("%w: best-effort %q", ErrUnknownUser, user)
	}
	a.publishLocked()
	return nil
}

// rebalanceLocked preempts best-effort borrowers (most recent first) until
// total best-effort usage fits the borrowable capacity. It returns the
// preemptions applied.
func (a *Allocator) rebalanceLocked() []Preemption {
	over := a.beUsedLocked().Sub(a.beAvailableLocked()).ClampMin(resource.Capacity{})
	if over.IsZero() {
		return nil
	}
	var out []Preemption
	// LIFO: newest borrowers lose first, and the table is oldest-first.
	for i := len(a.bestEffort) - 1; i >= 0 && !over.IsZero(); i-- {
		b := &a.bestEffort[i]
		cut := b.Granted.Min(over)
		if cut.IsZero() {
			continue
		}
		after := b.Granted.Sub(cut)
		out = append(out, Preemption{
			User:    b.User,
			Before:  b.Granted,
			After:   after,
			Evicted: after.IsZero(),
		})
		b.Granted = after
		over = over.Sub(cut).ClampMin(resource.Capacity{})
	}
	a.bestEffort = slices.DeleteFunc(a.bestEffort, func(b BEState) bool { return b.Granted.IsZero() })
	return out
}

// PoolUsage reports, for one partition pool, how much capacity each class
// currently occupies — the per-pool g/b rows of the §5.6 measurement
// tables.
type PoolUsage struct {
	Pool       string // "G", "A", "B"
	Capacity   resource.Capacity
	Offline    resource.Capacity
	Guaranteed resource.Capacity // used by guaranteed-class demand
	BestEffort resource.Capacity // used by best-effort borrowers
}

// Free returns the pool's idle online capacity.
func (u PoolUsage) Free() resource.Capacity {
	return u.Capacity.Sub(u.Offline).Sub(u.Guaranteed).Sub(u.BestEffort).ClampMin(resource.Capacity{})
}

// Snapshot reports current usage by pool. Accounting rule: guaranteed
// demand fills G then spills into A (the Adapt() transfer); best-effort
// fills B, then idle G, then idle A — the adaptive reserve is lent last so
// it stays available to absorb failures (this ordering reproduces the
// per-pool g/b rows of the §5.6 measurement list: at t0, best-effort
// demand of 11 shows as 5 in B, 5 in idle G, 1 in A).
func (a *Allocator) Snapshot() []PoolUsage {
	v := a.view.Load()
	out := make([]PoolUsage, len(v.pools))
	copy(out, v.pools[:])
	return out
}

// Utilization returns total allocated capacity divided by online capacity,
// per dimension (dimensions with zero capacity report zero).
func (a *Allocator) Utilization() resource.Capacity {
	return a.view.Load().utilization
}

// GuaranteedAllocation returns the current grant for a guaranteed user.
func (a *Allocator) GuaranteedAllocation(user string) (resource.Capacity, bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	c, ok := a.guaranteed[user]
	return c, ok
}

// AvailableGuaranteed reports the admission headroom for new guaranteed
// demand — the Available_Guaranteed_Resource check against the admission
// bound (see gBoundLocked).
func (a *Allocator) AvailableGuaranteed() resource.Capacity {
	return a.view.Load().availG
}

// AdmissionBound reports the ceiling for total guaranteed demand —
// min(C_G, C_G_eff + C_A) per dimension (see gBoundLocked). A floor that
// does not fit the bound can never be admitted, no matter how much
// compensation frees: the placement layer uses this to skip hopeless
// shards.
func (a *Allocator) AdmissionBound() resource.Capacity {
	return a.view.Load().bound
}

// LoadFactor reports how full the guaranteed partition is: the maximum
// over dimensions of (guaranteed demand / admission bound), 0 for an idle
// allocator and ≥ 1 when some dimension is saturated. The placement layer
// ranks shards by it.
func (a *Allocator) LoadFactor() float64 {
	return a.view.Load().loadFactor
}

// AvailableBestEffort reports the headroom for new best-effort demand.
func (a *Allocator) AvailableBestEffort() resource.Capacity {
	return a.view.Load().availBE
}

// Coverage returns, per dimension, the fraction of granted guaranteed
// capacity that is actually deliverable right now:
// min(1, (C_G_eff + C_A) / Σ c(u,t)). Under normal operation this is 1;
// it drops below 1 only when failures exceed what the adaptive reserve
// can absorb — the condition SLA-Verif reports as measured QoS below the
// agreed level.
func (a *Allocator) Coverage() resource.Capacity {
	return a.view.Load().coverage
}

// GuaranteedUsers returns the guaranteed users sorted by name.
func (a *Allocator) GuaranteedUsers() []string {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make([]string, 0, len(a.guaranteed))
	for u := range a.guaranteed {
		out = append(out, u)
	}
	sort.Strings(out)
	return out
}
