package core

import (
	"errors"
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
	oldAlloc := s.doc.Allocated
	// Network endpoints cannot move mid-session (the flow is pinned);
	// inherit them when absent.
	if newSpec.SourceIP == "" {
		newSpec.SourceIP = s.doc.Spec.SourceIP
	}
	if newSpec.DestIP == "" {
		newSpec.DestIP = s.doc.Spec.DestIP
	}
	sh.mu.Unlock()

	// Target quality: the best level the new spec allows within current
	// headroom plus what the session already holds.
	floor := newSpec.Floor()
	target := newSpec.Best()
	if class == sla.ClassControlledLoad {
		room := sh.alloc.AvailableGuaranteed().Add(oldAlloc)
		target = newSpec.Clamp(target.Min(room)).Max(floor)
	}
	m := move{
		target: target, spec: &newSpec, notes: [2]string{"renegotiation upgrade", "renegotiation refund"},
		mark: markRecovered, rebase: true, event: "renegotiate", msg: "QoS renegotiated %[1]v -> %[2]v (price %+.2[3]f)",
	}
	var compensated bool
	r, err := b.reallocate(sh, id, m)
	if errors.Is(err, ErrCannotHonor) {
		// Scenario-1 compensation on the session's own shard, then retry
		// once. The session's current hold is being replaced, so only the
		// increment beyond it must be freed.
		needed := floor.Sub(oldAlloc).ClampMin(resource.Capacity{})
		var cerr error
		if compensated, cerr = b.compensate(sh, needed); cerr != nil {
			return nil, fmt.Errorf("core: renegotiate %s: %w (compensation: %v)", id, err, cerr)
		}
		r, err = b.reallocate(sh, id, m)
	}
	if err != nil {
		return nil, fmt.Errorf("core: renegotiate %s: %w", id, err)
	}
	return &RenegotiationResult{SLA: id, Old: r.old, New: r.applied, PriceDelta: r.billed, Compensated: compensated}, nil
}
