package core

import (
	"errors"
	"fmt"

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
	// Old and New are the allocations before and after.
	Old, New resource.Capacity
	// PriceDelta is the charge (positive) or refund (negative) applied.
	PriceDelta float64
}

// Renegotiate replaces a live session's QoS specification with newSpec,
// reallocating to the best level the new specification and current
// capacity allow (guaranteed class: the exact new values). The session
// keeps its identity, reservation handle and validity window; only
// quality and price change. On failure the previous agreement stands.
func (b *Broker) Renegotiate(id sla.ID, newSpec sla.Spec) (*RenegotiationResult, error) {
	started := b.clock.Now()
	defer func() { b.met.renegSeconds.Observe(b.clock.Now().Sub(started).Seconds()) }()
	defer b.debugCheck("renegotiate")
	if err := newSpec.Validate(); err != nil {
		return nil, fmt.Errorf("%w: %w", ErrInvalidRequest, err)
	}
	if len(newSpec.Params) == 0 {
		return nil, fmt.Errorf("%w: no QoS parameters", ErrInvalidRequest)
	}

	b.mu.Lock()
	s, ok := b.sessions[id]
	if !ok {
		b.mu.Unlock()
		return nil, fmt.Errorf("%w: %s", ErrUnknownSession, id)
	}
	if state := s.doc.State; state.Terminal() || state == sla.StateProposed {
		b.mu.Unlock()
		return nil, fmt.Errorf("%w: %s is %s", ErrBadState, id, state)
	}
	class := s.doc.Class
	oldAlloc := s.doc.Allocated
	// Network endpoints cannot move mid-session (the flow is pinned);
	// inherit them when absent.
	if newSpec.SourceIP == "" {
		newSpec.SourceIP = s.doc.Spec.SourceIP
	}
	if newSpec.DestIP == "" {
		newSpec.DestIP = s.doc.Spec.DestIP
	}
	b.mu.Unlock()

	// Target quality: the best level the new spec allows within current
	// headroom plus what the session already holds.
	floor := newSpec.Floor()
	target := newSpec.Best()
	if class == sla.ClassControlledLoad {
		room := b.alloc.AvailableGuaranteed().Add(oldAlloc)
		target = newSpec.Clamp(target.Min(room)).Max(floor)
	}
	m := move{
		target: target, spec: &newSpec, notes: [2]string{"renegotiation upgrade", "renegotiation refund"},
		mark: markRecovered, rebase: true, line: renegotiatedLine,
	}
	r, err := b.reallocate(id, m)
	if errors.Is(err, ErrCannotHonor) {
		// Scenario-1 compensation, then retry once. The session's current hold is being replaced, so only the
		// increment beyond it must be freed.
		needed := floor.Sub(oldAlloc).ClampMin(resource.Capacity{})
		if _, cerr := b.compensate(needed); cerr != nil {
			return nil, reportRefusal(renegotiationRefused, id, err, cerr)
		}
		r, err = b.reallocate(id, m)
	}
	if err != nil {
		return nil, reportRefusal(renegotiationRefused, id, err, nil)
	}
	return &RenegotiationResult{Old: r.old, New: r.applied, PriceDelta: r.billed}, nil
}
