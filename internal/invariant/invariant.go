// Package invariant centralizes the broker's global correctness
// conditions — the oracle shared by the deterministic fuzz driver, the
// concurrent stress harness, the parallel simulator and the broker's
// optional debug hook. The rules are the ones the Algorithm-1 partition
// and the Fig. 3 lifecycle promise jointly:
//
//  1. the compute pool never holds more than its capacity (mechanism);
//  2. no shard's allocator over-commits any partition pool, each shard's
//     guaranteed demand stays within what that shard can deliver, and the
//     domain-wide sum conserves total capacity (policy);
//  3. every live session's allocation satisfies its SLA and matches the
//     allocator's book;
//  4. terminal sessions hold no allocator grant, and every guaranteed
//     grant belongs to a live session (no lost or double-spent capacity);
//  5. the ledger's net revenue is finite.
//
// The cross-component rules (3 and 4) compare two independently locked
// structures, so they only hold when no operation is in flight: call
// Check from single-threaded drivers after each step, or from concurrent
// harnesses at quiesce points only.
package invariant

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"gqosm/internal/core"
	"gqosm/internal/gara"
	"gqosm/internal/pricing"
	"gqosm/internal/resource"
	"gqosm/internal/sla"
)

// Violation is one broken invariant.
type Violation struct {
	// Rule names the invariant ("pool-oversubscribed",
	// "partition-overfull", "guaranteed-overcommit",
	// "domain-overcommit", "terminal-grant", "live-no-grant",
	// "double-grant", "sla-unsatisfied", "doc-allocator-skew",
	// "orphan-grant", "proposed-no-reservation", "ledger-nan"; from
	// CheckIntake: "intake-undrained"; and from CheckReservations:
	// "duplicate-reservation-tag", "leaked-reservation",
	// "missing-refund").
	Rule string
	// Detail describes the observed state.
	Detail string
}

func (v Violation) String() string { return v.Rule + ": " + v.Detail }

// Error aggregates every violation a check pass found.
type Error struct {
	Violations []Violation
}

func (e *Error) Error() string {
	parts := make([]string, len(e.Violations))
	for i, v := range e.Violations {
		parts[i] = v.String()
	}
	return fmt.Sprintf("invariant: %d violation(s): %s",
		len(e.Violations), strings.Join(parts, "; "))
}

func wrap(vs []Violation) error {
	if len(vs) == 0 {
		return nil
	}
	return &Error{Violations: vs}
}

// Check runs the broker-level invariants (rules 2–5). Its signature
// matches core.Broker.SetDebugHook, so a serial driver can install it
// directly: b.SetDebugHook(invariant.Check).
func Check(b *core.Broker) error {
	return wrap(brokerViolations(b))
}

// CheckPool verifies the mechanism invariant (rule 1): reservations in
// force at now never exceed the pool's capacity.
func CheckPool(p *resource.Pool, now time.Time) error {
	return wrap(poolViolations(p, now))
}

// CheckAll runs Check plus CheckPool over every pool, aggregating all
// violations into one error.
func CheckAll(b *core.Broker, now time.Time, pools ...*resource.Pool) error {
	vs := brokerViolations(b)
	for _, p := range pools {
		vs = append(vs, poolViolations(p, now)...)
	}
	return wrap(vs)
}

func poolViolations(p *resource.Pool, now time.Time) []Violation {
	if use := p.InUse(now); !use.FitsIn(p.Total()) {
		return []Violation{{
			Rule:   "pool-oversubscribed",
			Detail: fmt.Sprintf("pool %q holds %v > capacity %v", p.Name(), use, p.Total()),
		}}
	}
	return nil
}

func brokerViolations(b *core.Broker) []Violation {
	var vs []Violation
	allocs := b.Allocators()

	// Rule 2, per shard: no partition pool over-committed, and guaranteed
	// demand within that shard's deliverable bound C_G_eff + C_A. The
	// per-shard totals are also summed for the whole-domain conservation
	// check below, which must hold regardless of how admissions were
	// distributed across shards.
	var domainTotal, domainMax resource.Capacity
	for si, alloc := range allocs {
		plan := alloc.Plan()
		var gTotal resource.Capacity
		for _, u := range alloc.Snapshot() {
			gTotal = gTotal.Add(u.Guaranteed)
			if !u.Guaranteed.Add(u.BestEffort).FitsIn(u.Capacity.Sub(u.Offline)) {
				vs = append(vs, Violation{
					Rule:   "partition-overfull",
					Detail: fmt.Sprintf("shard %d pool %s: %+v", si, u.Pool, u),
				})
			}
		}
		gMax := plan.Guaranteed.Sub(alloc.Offline()).ClampMin(resource.Capacity{}).Add(plan.Adaptive)
		if !gTotal.FitsIn(gMax) {
			vs = append(vs, Violation{
				Rule:   "guaranteed-overcommit",
				Detail: fmt.Sprintf("shard %d: guaranteed %v exceeds deliverable %v", si, gTotal, gMax),
			})
		}
		domainTotal = domainTotal.Add(gTotal)
		domainMax = domainMax.Add(gMax)
	}
	if !domainTotal.FitsIn(domainMax) {
		vs = append(vs, Violation{
			Rule:   "domain-overcommit",
			Detail: fmt.Sprintf("domain guaranteed %v exceeds deliverable %v", domainTotal, domainMax),
		})
	}

	// Rules 3 and 4: session ↔ allocator consistency. Every allocator is
	// scanned for every session, so a grant booked on the wrong shard (or
	// duplicated across shards by a broken placement layer) is caught,
	// not just a missing one.
	live := make(map[string]bool)
	for _, doc := range b.Sessions(nil) {
		var got resource.Capacity
		holders := 0
		for _, alloc := range allocs {
			if g, held := alloc.GuaranteedAllocation(string(doc.ID)); held {
				got = g
				holders++
			}
		}
		if doc.State.Terminal() {
			if holders > 0 {
				vs = append(vs, Violation{
					Rule:   "terminal-grant",
					Detail: fmt.Sprintf("session %s is %s but still holds %v", doc.ID, doc.State, got),
				})
			}
			continue
		}
		live[string(doc.ID)] = true
		if holders == 0 {
			vs = append(vs, Violation{
				Rule:   "live-no-grant",
				Detail: fmt.Sprintf("live session %s (%s) has no allocator grant", doc.ID, doc.State),
			})
			continue
		}
		if holders > 1 {
			vs = append(vs, Violation{
				Rule:   "double-grant",
				Detail: fmt.Sprintf("session %s holds grants on %d shards", doc.ID, holders),
			})
		}
		if !doc.Spec.Accepts(doc.Allocated) {
			vs = append(vs, Violation{
				Rule:   "sla-unsatisfied",
				Detail: fmt.Sprintf("session %s allocation %v violates its SLA", doc.ID, doc.Allocated),
			})
		}
		if !got.Equal(doc.Allocated) {
			vs = append(vs, Violation{
				Rule:   "doc-allocator-skew",
				Detail: fmt.Sprintf("session %s document says %v, allocator says %v", doc.ID, doc.Allocated, got),
			})
		}
	}
	for si, alloc := range allocs {
		for _, user := range alloc.GuaranteedUsers() {
			if !live[user] {
				vs = append(vs, Violation{
					Rule:   "orphan-grant",
					Detail: fmt.Sprintf("guaranteed grant for %q on shard %d has no live session", user, si),
				})
			}
		}
	}

	// Rule 6 (batch atomicity): a flushed intake batch never leaves a
	// partially installed admission. Every member either installs
	// completely — grant, GARA reservation, session, route — or rolls
	// back completely, so a Proposed session with no reservation handle
	// is the footprint of a torn batch member. Holds on the direct path
	// too (proposal never outruns its reservation there either).
	for _, s := range b.SessionInfos() {
		if s.State == sla.StateProposed && s.Handle == "" {
			vs = append(vs, Violation{
				Rule:   "proposed-no-reservation",
				Detail: fmt.Sprintf("session %s is proposed with no GARA reservation handle", s.ID),
			})
		}
	}

	// Rule 5: accounting sanity.
	if rev := b.Ledger().NetRevenue(); rev != rev { // NaN check
		vs = append(vs, Violation{Rule: "ledger-nan", Detail: "net revenue is NaN"})
	}
	return vs
}

// CheckIntake verifies that the intake queues are fully drained — every
// submitted admission was flushed and resolved. It is a quiesce-point
// rule, not part of Check: between a Submit and its flush a non-empty
// queue is normal, so the debug hook must not see this rule.
func CheckIntake(b *core.Broker) error {
	if n := b.IntakePending(); n != 0 {
		return wrap([]Violation{{
			Rule:   "intake-undrained",
			Detail: fmt.Sprintf("%d admission(s) still queued at a quiesce point", n),
		}})
	}
	return nil
}

// CheckShadowInert is the shadow-evaluation rule: consulting a candidate
// policy must never mutate live broker state, so a shadow-on run of a
// seeded workload must produce exactly the state digest of the shadow-off
// run. The caller computes the two digests (sha256 over each run's
// outcome and oracle — see internal/shadow); this rule only
// renders the verdict, keeping the oracle's violation taxonomy in one
// place.
func CheckShadowInert(offDigest, onDigest string) error {
	if offDigest == onDigest {
		return nil
	}
	return wrap([]Violation{{
		Rule:   "shadow-mutated-state",
		Detail: fmt.Sprintf("shadow-on digest %s differs from shadow-off digest %s", onDigest, offDigest),
	}})
}

// ReservationCheck configures CheckReservations.
type ReservationCheck struct {
	// Final enables the drain-only rules (leaked-reservation,
	// missing-refund). They compare the reservation table and the
	// ledger against the session set, which is only meaningful after
	// the workload has fully drained: faults disabled, every session
	// driven terminal, and ReconcileReservations run to completion.
	Final bool
}

// CheckReservations runs the fault-tolerance invariants the retry layer
// promises, against the broker and its GARA system:
//
//   - duplicate-reservation-tag (any quiesce point): at most one live
//     reservation per idempotency tag — a retried two-phase create must
//     adopt, never double-commit;
//   - leaked-reservation (Final only): every surviving reservation
//     belongs to a live session — nothing leaks across a crashed RM
//     once reconciliation has run;
//   - missing-refund (Final only): a session that ended its life
//     degraded was refunded the price difference; assumes pricing is
//     strictly monotone in capacity, as every shipped rate plan is.
func CheckReservations(b *core.Broker, g *gara.System, opt ReservationCheck) error {
	return wrap(reservationViolations(b, g, opt))
}

func reservationViolations(b *core.Broker, g *gara.System, opt ReservationCheck) []Violation {
	var vs []Violation
	reservations := g.Reservations()

	liveByTag := make(map[string]int)
	for _, r := range reservations {
		if r.Status == gara.StatusCanceled || r.Tag == "" {
			continue
		}
		liveByTag[r.Tag]++
	}
	var dups []string
	for tag, n := range liveByTag {
		if n > 1 {
			dups = append(dups, fmt.Sprintf("%s×%d", tag, n))
		}
	}
	sort.Strings(dups)
	for _, d := range dups {
		vs = append(vs, Violation{
			Rule:   "duplicate-reservation-tag",
			Detail: "double-committed reservation: " + d,
		})
	}
	if !opt.Final {
		return vs
	}

	infos := b.SessionInfos()
	liveSession := make(map[string]bool)
	for _, s := range infos {
		if !s.State.Terminal() {
			liveSession[string(s.ID)] = true
		}
	}
	for _, r := range reservations {
		if r.Status == gara.StatusCanceled {
			continue
		}
		if !liveSession[r.Tag] {
			vs = append(vs, Violation{
				Rule: "leaked-reservation",
				Detail: fmt.Sprintf("reservation %s (tag %q) is %s but no live session owns it",
					r.Handle, r.Tag, r.Status),
			})
		}
	}

	refunded := make(map[string]bool)
	for _, e := range b.Ledger().Entries() {
		if e.Kind == pricing.EntryRefund {
			refunded[string(e.SLA)] = true
		}
	}
	for _, s := range infos {
		if s.State.Terminal() && s.Degraded && !refunded[string(s.ID)] {
			vs = append(vs, Violation{
				Rule: "missing-refund",
				Detail: fmt.Sprintf("session %s was torn down while degraded with no refund on the ledger",
					s.ID),
			})
		}
	}
	return vs
}
