package cluster

// A Slot is the front tier's view of one in-process broker instance
// (separate aqosd processes federate with -peer instead).

import "gqosm/internal/core"

// Slot is one cluster member. Safe for concurrent use.
type Slot struct {
	domain string
	broker *core.Broker
}

// NewSlot wraps an in-process broker instance.
func NewSlot(b *core.Broker) *Slot {
	return &Slot{domain: b.Domain(), broker: b}
}

// Domain names the slot's administrative domain.
func (s *Slot) Domain() string { return s.domain }

// Broker returns the slot's broker instance.
func (s *Slot) Broker() *core.Broker { return s.broker }

// Recovering reports whether the slot's broker is mid-Recover: placement
// skips such a slot.
func (s *Slot) Recovering() bool { return s.broker.Recovering() }

// PeerDomain implements core.Peer.
func (s *Slot) PeerDomain() string { return s.domain }

// PeerRequest implements core.Peer: it admits req on the slot's broker.
// A broker that went into recovery after the front routed it refuses
// with the transient core.ErrPeerUnavailable, which the front's walk
// forwards to the next slot.
func (s *Slot) PeerRequest(req core.Request) (*core.Offer, error) {
	return s.broker.RequestService(req)
}
