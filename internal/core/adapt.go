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
	"math"
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

// Validate checks the partition: every component finite and below 2⁵²
// (about 4.5·10¹⁵, far above any grid's capacity: the range in which the
// allocator's exact total of guaranteed demand takes every grant exactly,
// see toFix128), none negative, and the total not empty.
func (p CapacityPlan) Validate() error {
	for _, c := range [...]resource.Capacity{p.Guaranteed, p.Adaptive, p.BestEffort} {
		for _, k := range resource.Kinds {
			if v := c.Get(k); math.IsNaN(v) || math.Abs(v) >= fixLimit {
				return fmt.Errorf("core: capacity plan %s=%g is not finite and below 2^52", k, v)
			}
		}
	}
	if !p.Guaranteed.IsNonNegative() || !p.Adaptive.IsNonNegative() || !p.BestEffort.IsNonNegative() {
		return errors.New("core: capacity plan has negative components")
	}
	if p.Total().IsZero() {
		return errors.New("core: capacity plan is empty")
	}
	return nil
}

// Split partitions the plan into n equal shares, one per broker of a
// cluster. Each pool is divided by n; the last share takes the remainder
// so the shares always sum exactly to the original plan (no capacity is
// lost to floating-point drift). n ≤ 1 returns the plan itself.
func (p CapacityPlan) Split(n int) []CapacityPlan {
	if n <= 1 {
		return []CapacityPlan{p}
	}
	per := CapacityPlan{
		Guaranteed: p.Guaranteed.Scale(1 / float64(n)),
		Adaptive:   p.Adaptive.Scale(1 / float64(n)),
		BestEffort: p.BestEffort.Scale(1 / float64(n)),
	}
	out := make([]CapacityPlan, n)
	rem := p
	for i := 0; i < n-1; i++ {
		out[i] = per
		rem = CapacityPlan{
			Guaranteed: rem.Guaranteed.Sub(per.Guaranteed),
			Adaptive:   rem.Adaptive.Sub(per.Adaptive),
			BestEffort: rem.BestEffort.Sub(per.BestEffort),
		}
	}
	out[n-1] = rem
	return out
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

// GrantResult reports the outcome of a guaranteed allocation.
type GrantResult struct {
	// Granted is the capacity actually allocated (== requested, or the
	// SLA floor when the full request could not be honored).
	Granted resource.Capacity
	// Shortfall is the unsatisfied remainder (requested − granted).
	Shortfall resource.Capacity
}

// Allocator is the Algorithm-1 engine: it tracks instantaneous capacity
// allocations c(u,t) for guaranteed users and b(u,t) for best-effort
// users against the partition, implements Adapt(), and enforces the
// dynamic-borrowing policy ("the extra reserved capacity is used by 'best
// effort' users as long as it is not needed by 'guaranteed' users"). It is
// safe for concurrent use.
//
// Every method that reads the book takes mu, the advisory reads too
// (Snapshot, Utilization, LoadFactor, AvailableGuaranteed,
// AvailableBestEffort, Coverage, Offline): each computes only its own
// answer from the same locked helpers admission uses — the exact
// guaranteed total and the ordered best-effort sum — so it returns
// bit-identical results to what an admission at that instant sees (the
// post-drain exact-equality checks depend on this). Their callers
// (front-tier load reports, quality pre-clamping, metric gauges) act on
// a value admission re-validates under the lock.
type Allocator struct {
	plan CapacityPlan

	mu         sync.Mutex
	offline    resource.Capacity // failed capacity, charged against C_G
	guaranteed map[string]resource.Capacity
	// gTotal is Σ c(u,t) over guaranteed, kept exactly: every write to
	// guaranteed subtracts the old grant and adds the new one here, so the
	// total depends on the grants alone, never on the order of the writes
	// or of a map walk. gDemand is gTotal rounded to float64, re-derived
	// only when gTotal changes.
	gTotal  exactCapacity
	gDemand resource.Capacity
	// bestEffort is in allocation order: Seq strictly ascends, because a
	// grant appends nextSeq+1 and nothing ever reorders the rows.
	bestEffort []BEState
	nextSeq    int
	// frees counts the book changes that can make room for a grant:
	// releases, re-grants that shrink a holding, and failed-capacity
	// changes. It starts at 1, so a zero stamp reads "never refused"
	// (session.refusedAt); a refused restore cannot succeed until it moves.
	frees atomic.Uint64
}

// NewAllocator returns an allocator over the given plan.
func NewAllocator(plan CapacityPlan) (*Allocator, error) {
	if err := plan.Validate(); err != nil {
		return nil, err
	}
	a := &Allocator{
		plan:       plan,
		guaranteed: make(map[string]resource.Capacity),
	}
	a.frees.Store(1)
	return a, nil
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

// Restore overwrites the allocator's full state from recovered data. The
// guaranteed map comes from the replayed session documents; the auxiliary
// state from the latest journaled ExportAux image. No feasibility re-check
// happens here — the recovered state was feasible when journaled, and the
// invariant oracle re-verifies after recovery.
func (a *Allocator) Restore(guaranteed map[string]resource.Capacity, offline resource.Capacity, be []BEState, nextSeq int) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.guaranteed = make(map[string]resource.Capacity, len(guaranteed))
	var total exactCapacity
	for u, c := range guaranteed {
		a.guaranteed[u] = c
		total = total.add(exactOf(c))
	}
	a.setGTotalLocked(total)
	a.offline = offline.Min(a.plan.Guaranteed).ClampMin(resource.Capacity{})
	a.bestEffort = slices.Clone(be)
	a.nextSeq = nextSeq
	a.frees.Add(1)
}

// SetOffline marks capacity as failed/inaccessible (the §5.6 t2 event).
// Failures are charged against the guaranteed pool C_G — the case the
// adaptive reserve exists to absorb. Existing guaranteed grants are never
// reduced by failures (their SLAs are honored from C_A via Adapt());
// best-effort borrowers are preempted as needed. It returns the users of the
// best-effort allocations it reduced, one per allocation.
func (a *Allocator) SetOffline(c resource.Capacity) []string {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.offline = c.Min(a.plan.Guaranteed).ClampMin(resource.Capacity{})
	a.frees.Add(1)
	return a.rebalanceLocked()
}

// Offline returns the currently failed capacity.
func (a *Allocator) Offline() resource.Capacity {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.offline
}

// effectiveG returns C_G minus failed capacity.
func (a *Allocator) effectiveGLocked() resource.Capacity {
	return a.plan.Guaranteed.Sub(a.offline).ClampMin(resource.Capacity{})
}

// gDemandLocked is Σ c(u,t), the guaranteed demand: the exact running
// total, rounded once.
func (a *Allocator) gDemandLocked() resource.Capacity { return a.gDemand }

// setGTotalLocked stores a new guaranteed total, rounding it only when it
// changed.
func (a *Allocator) setGTotalLocked(t exactCapacity) {
	if t != a.gTotal {
		a.gTotal = t
		a.gDemand = t.capacity()
	}
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
	ask := [1]GuaranteedAsk{{User: user, Requested: requested, Floor: floor}}
	a.AllocateGuaranteedBatch(ask[:])
	return ask[0].Grant, ask[0].Err
}

// allocateGuaranteedLocked is the Algorithm-1 admission core of
// AllocateGuaranteedBatch. The caller holds a.mu and is responsible for
// running rebalanceLocked after grant(s) that changed the book — that is
// exactly what a batch amortizes.
func (a *Allocator) allocateGuaranteedLocked(user string, requested, floor resource.Capacity) (GrantResult, error) {
	prev, hadPrev := a.guaranteed[user]
	// others is everyone else's demand, exactly; base rounds it once.
	others, base := a.gTotal, a.gDemand
	if hadPrev {
		others = others.sub(exactOf(prev))
		base = others.capacity()
	}
	bound := a.gBoundLocked()

	var res GrantResult
	switch {
	case base.Add(requested).FitsIn(bound):
		// Σ c(u,t) ≤ C_G: "c(u,t) capacity must be given". When
		// failures leave Σ c(u,t) > C_G_eff, Adapt() transfers
		// min(C_A, −net) from A to G — the grant stands either way.
		res.Granted = requested
	case base.Add(floor).FitsIn(bound):
		// The full request exceeds the admission bound: "only g(u)
		// capacity is given"; the rest is the caller's to re-request
		// later.
		res.Granted = floor
		res.Shortfall = requested.Sub(floor)
	default:
		// A held grant is left untouched.
		r := &Refusal{Err: ErrCannotHonor, ID: user, Need: floor, form: refusedFloor,
			Avail: bound.Sub(base).ClampMin(resource.Capacity{})}
		if hadPrev {
			r.form = refusedRegrant
		}
		return GrantResult{}, r
	}

	if hadPrev && res.Granted.Min(prev) != prev {
		a.frees.Add(1) // a dimension shrank
	}
	a.guaranteed[user] = res.Granted
	a.setGTotalLocked(others.add(exactOf(res.Granted)))
	return res, nil
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
// per-admission lock acquisition and best-effort rebalance are paid once
// per batch instead of once per request. Each ask's Grant / Err report
// its outcome; failed members (ErrCannotHonor, validation) leave the book
// untouched, and so does a re-grant of the amount a user already holds:
// when no member changed the book, the batch does not rebalance.
func (a *Allocator) AllocateGuaranteedBatch(asks []GuaranteedAsk) {
	a.mu.Lock()
	defer a.mu.Unlock()
	changed := false
	for i := range asks {
		ask := &asks[i]
		switch {
		case !ask.Floor.FitsIn(ask.Requested):
			ask.Err = fmt.Errorf("core: floor %v exceeds request %v", ask.Floor, ask.Requested)
		case !ask.Requested.IsNonNegative():
			ask.Err = fmt.Errorf("core: negative request %v", ask.Requested)
		default:
			prev, held := a.guaranteed[ask.User]
			ask.Grant, ask.Err = a.allocateGuaranteedLocked(ask.User, ask.Requested, ask.Floor)
			changed = changed || ask.Err == nil && (!held || ask.Grant.Granted != prev)
		}
	}
	if changed {
		a.rebalanceLocked()
	}
}

// ReleaseGuaranteed frees a guaranteed user's allocation (service
// termination — scenario 2's trigger).
func (a *Allocator) ReleaseGuaranteed(user string) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	prev, ok := a.guaranteed[user]
	if !ok {
		return fmt.Errorf("%w: guaranteed %q", ErrUnknownUser, user)
	}
	delete(a.guaranteed, user)
	a.setGTotalLocked(a.gTotal.sub(exactOf(prev)))
	a.frees.Add(1)
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
		return &Refusal{Err: ErrBestEffortFull, ID: user, Need: requested, Avail: avail, form: refusedBestEffort}
	}
	a.nextSeq++
	a.bestEffort = append(a.bestEffort, BEState{User: user, Granted: requested, Seq: a.nextSeq})
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
	a.frees.Add(1)
	return nil
}

// rebalanceLocked preempts best-effort borrowers (most recent first) until
// total best-effort usage fits the borrowable capacity. It returns the
// users of the allocations it reduced.
func (a *Allocator) rebalanceLocked() []string {
	over := a.beUsedLocked().Sub(a.beAvailableLocked()).ClampMin(resource.Capacity{})
	if over.IsZero() {
		return nil
	}
	var out []string
	// LIFO: newest borrowers lose first, and the table is oldest-first.
	for i := len(a.bestEffort) - 1; i >= 0 && !over.IsZero(); i-- {
		b := &a.bestEffort[i]
		cut := b.Granted.Min(over)
		if cut.IsZero() {
			continue
		}
		out = append(out, b.User)
		b.Granted = b.Granted.Sub(cut)
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
	a.mu.Lock()
	defer a.mu.Unlock()
	pools := a.poolsLocked()
	return pools[:]
}

// pool returns row i (G, A, B) of Snapshot without allocating.
func (a *Allocator) pool(i int) PoolUsage {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.poolsLocked()[i]
}

// poolsLocked computes Snapshot's three rows; the caller holds a.mu.
func (a *Allocator) poolsLocked() [3]PoolUsage {
	gEff := a.effectiveGLocked()
	gInG := a.gDemandLocked().Min(gEff)
	gInA := a.adaptiveUsedLocked()
	be := a.beUsedLocked()
	beInB := be.Min(a.plan.BestEffort)
	rem := be.Sub(beInB).ClampMin(resource.Capacity{})
	freeG := gEff.Sub(gInG).ClampMin(resource.Capacity{})
	beInG := rem.Min(freeG)
	beInA := rem.Sub(beInG).ClampMin(resource.Capacity{})
	return [...]PoolUsage{
		{Pool: "G", Capacity: a.plan.Guaranteed, Offline: a.offline, Guaranteed: gInG, BestEffort: beInG},
		{Pool: "A", Capacity: a.plan.Adaptive, Guaranteed: gInA, BestEffort: beInA},
		{Pool: "B", Capacity: a.plan.BestEffort, BestEffort: beInB},
	}
}

// Utilization returns total allocated capacity divided by online capacity,
// per dimension (dimensions with zero capacity report zero).
func (a *Allocator) Utilization() resource.Capacity {
	a.mu.Lock()
	defer a.mu.Unlock()
	online := a.plan.Total().Sub(a.offline)
	used := a.gDemandLocked().Add(a.beUsedLocked())
	var u resource.Capacity
	for _, k := range resource.Kinds {
		if online.Get(k) > resource.Epsilon {
			u = u.With(k, used.Get(k)/online.Get(k))
		}
	}
	return u
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
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.gBoundLocked().Sub(a.gDemandLocked()).ClampMin(resource.Capacity{})
}

// LoadFactor reports how full the guaranteed partition is: the maximum
// over dimensions of (guaranteed demand / admission bound), 0 for an idle
// allocator and ≥ 1 when some dimension is saturated. The broker's load
// report carries it to the front tier.
func (a *Allocator) LoadFactor() float64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	bound, demand := a.gBoundLocked(), a.gDemandLocked()
	var f float64
	for _, k := range resource.Kinds {
		if bk := bound.Get(k); bk > resource.Epsilon {
			if fk := demand.Get(k) / bk; fk > f {
				f = fk
			}
		}
	}
	return f
}

// AvailableBestEffort reports the headroom for new best-effort demand.
func (a *Allocator) AvailableBestEffort() resource.Capacity {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.beAvailableLocked().Sub(a.beUsedLocked()).ClampMin(resource.Capacity{})
}

// Coverage returns, per dimension, the fraction of granted guaranteed
// capacity that is actually deliverable right now:
// min(1, (C_G_eff + C_A) / Σ c(u,t)). Under normal operation this is 1;
// it drops below 1 only when failures exceed what the adaptive reserve
// can absorb — the condition SLA-Verif reports as measured QoS below the
// agreed level.
func (a *Allocator) Coverage() resource.Capacity {
	a.mu.Lock()
	defer a.mu.Unlock()
	deliverable := a.effectiveGLocked().Add(a.plan.Adaptive)
	demand := a.gDemandLocked()
	c := resource.Capacity{CPU: 1, MemoryMB: 1, DiskGB: 1, BandwidthMbps: 1}
	for _, k := range resource.Kinds {
		if d := demand.Get(k); d > resource.Epsilon {
			if ratio := deliverable.Get(k) / d; ratio < 1 {
				c = c.With(k, ratio)
			}
		}
	}
	return c
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
