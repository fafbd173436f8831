package core

import (
	"fmt"
	"time"

	"gqosm/internal/resource"
	"gqosm/internal/sla"
)

// This file implements the QoS Re-negotiation function of the Active phase
// (Fig. 3, and the phase-5 interaction of Fig. 4): a client renegotiates a
// running session's QoS specification. The pricing component "plays a
// major role" (§1.1): the new quality is re-priced and the difference
// charged or refunded. Upward renegotiation may trigger scenario-1
// compensation exactly like a new request.

// RenegotiationResult reports the outcome of a Renegotiate call.
type RenegotiationResult struct {
	SLA sla.ID
	// Old and New are the allocations before and after.
	Old, New resource.Capacity
	// PriceDelta is the charge (positive) or refund (negative) applied.
	PriceDelta float64
	// Compensated reports that scenario-1 adaptation ran to make room.
	Compensated bool
}

// Renegotiate replaces a live session's QoS specification with newSpec,
// reallocating to the best level the new specification and current
// capacity allow (guaranteed class: the exact new values). The session
// keeps its identity, reservation handle and validity window; only
// quality and price change. On failure the previous agreement stands.
func (b *Broker) Renegotiate(id sla.ID, newSpec sla.Spec) (*RenegotiationResult, error) {
	started := time.Now()
	defer func() { b.met.renegSeconds.Observe(time.Since(started).Seconds()) }()
	defer b.debugCheck("renegotiate")
	if err := newSpec.Validate(); err != nil {
		return nil, err
	}
	if len(newSpec.Params) == 0 {
		return nil, fmt.Errorf("core: renegotiation needs QoS parameters")
	}

	sh := b.shardFor(id)
	if sh == nil {
		return nil, fmt.Errorf("%w: %s", ErrUnknownSession, id)
	}
	sh.mu.Lock()
	s, ok := sh.sessions[id]
	if !ok {
		sh.mu.Unlock()
		return nil, fmt.Errorf("%w: %s", ErrUnknownSession, id)
	}
	if state := s.doc.State; state.Terminal() || state == sla.StateProposed {
		sh.mu.Unlock()
		return nil, fmt.Errorf("%w: %s is %s", ErrBadState, id, state)
	}
	class := s.doc.Class
	oldSpec := s.doc.Spec.Clone()
	oldAlloc := s.doc.Allocated
	handle := s.handle
	sh.mu.Unlock()

	// Network endpoints cannot move mid-session (the flow is pinned);
	// inherit them when absent.
	if newSpec.SourceIP == "" {
		newSpec.SourceIP = oldSpec.SourceIP
	}
	if newSpec.DestIP == "" {
		newSpec.DestIP = oldSpec.DestIP
	}

	// Target quality: the best level the new spec allows within current
	// headroom plus what the session already holds.
	target := newSpec.Best()
	if class == sla.ClassControlledLoad {
		room := sh.alloc.AvailableGuaranteed().Add(oldAlloc)
		target = newSpec.Clamp(target.Min(room)).Max(newSpec.Floor())
	}
	floor := newSpec.Floor()

	res := &RenegotiationResult{SLA: id, Old: oldAlloc}
	grant, err := b.allocateLive(id, target, floor)
	if err != nil {
		// Scenario-1 compensation on the session's own shard, then retry
		// once. The session's current hold is being replaced, so only the
		// increment beyond it must be freed.
		needed := floor.Sub(oldAlloc).ClampMin(resource.Capacity{})
		freed, cerr := b.compensate(sh, needed)
		if cerr != nil {
			return nil, fmt.Errorf("core: renegotiate %s: %w (compensation: %v)", id, err, cerr)
		}
		res.Compensated = freed
		grant, err = b.allocateLive(id, target, floor)
		if err != nil {
			// Restore the previous grant before reporting failure.
			_, _ = b.allocateLive(id, oldAlloc, oldSpec.Floor())
			b.journalShardAux("rollback", sh)
			return nil, fmt.Errorf("core: renegotiate %s after compensation: %w", id, err)
		}
	}
	granted := grant.Granted

	// Push the new reservation; on failure roll the allocator back.
	if err := b.pol.call("gara.modify", func() error {
		return b.cfg.GARA.Modify(handle, reservationRSL(newSpec, granted))
	}); err != nil {
		_, _ = b.allocateLive(id, oldAlloc, oldSpec.Floor())
		b.journalShardAux("rollback", sh)
		return nil, fmt.Errorf("core: renegotiate %s: %w", id, err)
	}

	// Commit: new spec, allocation, price; re-derive the alternative
	// QoS fallback from the new floor.
	delta := b.prices.Cost(class, granted) - b.prices.Cost(class, oldAlloc)
	sh.mu.Lock()
	if s.doc.State.Terminal() {
		// Torn down while the new reservation was being pushed; the
		// teardown already released the grant and canceled the handle, so
		// the terminal document must stand untouched.
		sh.mu.Unlock()
		return nil, fmt.Errorf("%w: %s terminated during renegotiation", ErrBadState, id)
	}
	s.doc.Spec = newSpec.Clone()
	s.doc.Allocated = granted
	s.doc.Price += delta
	s.doc.Adapt.AlternativeQoS = floor
	s.original = granted
	s.degraded = false
	if s.doc.State == sla.StateDegraded {
		_ = s.doc.Transition(sla.StateActive)
	}
	b.logLocked("renegotiate", id, "QoS renegotiated %v -> %v (price %+.2f)", oldAlloc, granted, delta)
	sh.mu.Unlock()

	switch {
	case delta > 0:
		b.ledger.Charge(id, delta, b.clock.Now(), "renegotiation upgrade")
	case delta < 0:
		b.ledger.Record(entryRefund(id, -delta, b))
	}
	b.persist(id)

	res.New = granted
	res.PriceDelta = delta
	return res, nil
}
