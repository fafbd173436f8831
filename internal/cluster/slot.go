package cluster

// A Slot is the front tier's view of one in-process broker instance
// (separate aqosd processes federate with -peer instead). A slot
// outlives its broker across crash/recovery — the front marks it
// recovering, the operator (or harness) recovers the broker, and Swap
// installs the recovered instance under the same domain.

import (
	"fmt"
	"sync"

	"gqosm/internal/core"
	"gqosm/internal/sla"
)

// Slot is one cluster member. Safe for concurrent use.
type Slot struct {
	domain string

	mu         sync.RWMutex
	broker     *core.Broker
	recovering bool
}

// NewSlot wraps an in-process broker instance.
func NewSlot(b *core.Broker) *Slot {
	return &Slot{domain: b.Domain(), broker: b}
}

// Domain names the slot's administrative domain.
func (s *Slot) Domain() string { return s.domain }

// Broker returns the slot's current broker instance.
func (s *Slot) Broker() *core.Broker {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.broker
}

// MarkRecovering flips the slot's recovering flag: a recovering slot is
// skipped by placement and answers peer requests with
// core.ErrPeerUnavailable (the same transient refusal a mid-Recover
// broker gives), so in-flight fan-outs re-route instead of failing.
func (s *Slot) MarkRecovering(v bool) {
	s.mu.Lock()
	s.recovering = v
	s.mu.Unlock()
}

// Recovering reports the flag (it also reflects a local broker that is
// itself mid-Recover).
func (s *Slot) Recovering() bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.recovering || s.broker.Recovering()
}

// Swap installs a recovered broker instance under the slot's domain and
// clears the recovering flag. The instance must carry the same domain.
func (s *Slot) Swap(b *core.Broker) error {
	if b.Domain() != s.domain {
		return fmt.Errorf("cluster: swap of domain %q into slot %q", b.Domain(), s.domain)
	}
	s.mu.Lock()
	s.broker, s.recovering = b, false
	s.mu.Unlock()
	return nil
}

// PeerDomain implements core.Peer.
func (s *Slot) PeerDomain() string { return s.domain }

// PeerRequest implements core.Peer: a recovering slot refuses with the
// transient gate so the federation's retry policy treats it as a flaky
// wire, not a definitive rejection.
func (s *Slot) PeerRequest(req core.Request) (*core.Offer, error) {
	s.mu.RLock()
	b, rec := s.broker, s.recovering
	s.mu.RUnlock()
	if rec {
		return nil, fmt.Errorf("%w: slot %q", core.ErrPeerUnavailable, s.domain)
	}
	return b.PeerRequest(req)
}

// PeerReject implements core.Peer: it retracts a losing offer on the
// slot's broker.
func (s *Slot) PeerReject(id sla.ID) error { return s.Broker().PeerReject(id) }

// Load fetches the slot's load report; recovering slots report
// themselves as such without asking the broker.
func (s *Slot) Load() (core.LoadReport, error) {
	s.mu.RLock()
	b, rec := s.broker, s.recovering
	s.mu.RUnlock()
	if rec {
		return core.LoadReport{Domain: s.domain, Recovering: true},
			fmt.Errorf("%w: slot %q", core.ErrPeerUnavailable, s.domain)
	}
	return b.LoadReport(), nil
}

var _ core.Peer = (*Slot)(nil)
