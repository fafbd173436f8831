package core

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"gqosm/internal/sla"
	"gqosm/internal/soapx"
	"gqosm/internal/xmlmsg"
)

// This file implements the inter-domain half of Fig. 1: the AQoS "is
// required to interact with clients, RMs, NRMs and *neighboring AQoSs*".
// A Federation links the brokers of several administrative domains; a
// request the local broker cannot serve (no matching service, or
// insufficient capacity even after scenario-1 compensation) is forwarded
// to neighbor brokers one at a time, in preference order, and the first
// domain's offer is returned to the client unchanged.

// Peer is a neighboring AQoS broker. It is satisfied by *Broker (local
// wiring) and by *Client via PeerClient (SOAP wiring).
type Peer interface {
	// PeerDomain names the peer's administrative domain.
	PeerDomain() string
	// PeerRequest forwards a service request.
	PeerRequest(req Request) (*Offer, error)
}

// PeerDomain implements Peer for the local broker.
func (b *Broker) PeerDomain() string { return b.cfg.Domain }

// PeerRequest implements Peer for the local broker.
func (b *Broker) PeerRequest(req Request) (*Offer, error) { return b.RequestService(req) }

var _ Peer = (*Broker)(nil)

// ErrNoDomainCanServe is returned when the local broker and every
// reachable neighbor decline a request.
var ErrNoDomainCanServe = errors.New("core: no domain can serve the request")

// ErrDuplicatePeer is returned by AddPeer for a peer whose domain is
// already registered (or is the home domain itself): the walk would
// otherwise ask the same broker twice for one request.
var ErrDuplicatePeer = errors.New("core: peer domain already registered")

// ErrPeerUnavailable is the recovery-gated refusal: a broker that is
// mid-Recover (WAL replay and RM reconciliation still in flight) refuses
// admissions with it instead of answering from half-installed state.
// Unlike a dead peer's ErrClosed it is transient — retryable() treats it
// like a flaky wire, so the federation retries within its budget and the
// front tier re-routes the admission instead of failing it.
var ErrPeerUnavailable = errors.New("core: peer broker temporarily unavailable (recovering)")

// Federation fronts a home broker with a set of neighbors. It is safe for
// concurrent use.
type Federation struct {
	home *Broker

	mu    sync.Mutex
	peers []Peer
}

// NewFederation returns a federation around the home broker.
func NewFederation(home *Broker) *Federation {
	return &Federation{home: home}
}

// AddPeer registers a neighboring AQoS. Peers are tried in registration
// order. A peer whose domain is already registered — or that names the
// home domain — is rejected with ErrDuplicatePeer: a domain that declined
// a request once would only be asked to decline it again.
func (f *Federation) AddPeer(p Peer) error {
	domain := p.PeerDomain()
	if domain == f.home.cfg.Domain {
		return fmt.Errorf("%w: %q is the home domain", ErrDuplicatePeer, domain)
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, q := range f.peers {
		if q.PeerDomain() == domain {
			return fmt.Errorf("%w: %q", ErrDuplicatePeer, domain)
		}
	}
	f.peers = append(f.peers, p)
	return nil
}

// FederatedOffer is an Offer annotated with the domain that produced it.
type FederatedOffer struct {
	Offer
	// Domain is the administrative domain whose broker made the offer;
	// Accept/Reject/Invoke must be addressed there.
	Domain string
	// Forwarded reports that the home domain declined and a neighbor
	// served the request.
	Forwarded bool
}

// RequestService tries the home broker first, then each neighbor in
// registration order (WalkPeers). Each neighbor is asked under the home
// broker's retry policy: a flaky wire is retried, a dead neighbor is
// given up on after the budget and the walk moves on. A retry after a
// lost reply may leave an extra temporary reservation on the peer — its
// confirm window reclaims it, exactly like any other unaccepted offer.
func (f *Federation) RequestService(req Request) (*FederatedOffer, error) {
	f.mu.Lock()
	peers := append([]Peer{f.home}, f.peers...)
	f.mu.Unlock()

	offer, n, err := WalkPeers(peers, func(n int, p Peer) (*Offer, error) {
		if n == 0 {
			return f.home.RequestService(req)
		}
		return call(f.home.pol, "peer.request", peerArgs{p, req}, func(a peerArgs) (*Offer, error) {
			return a.p.PeerRequest(a.req)
		})
	})
	if err != nil {
		return nil, err
	}
	if n > 0 {
		f.home.logf("federation", "", "request for %q forwarded to neighbor %q", req.Service, peers[n].PeerDomain())
	}
	return &FederatedOffer{Offer: *offer, Domain: peers[n].PeerDomain(), Forwarded: n > 0}, nil
}

// WalkPeers asks peers for an offer one at a time, in order, on the
// caller's goroutine; ask is how the n-th peer is asked. The first offer
// wins and no later peer is asked, so no domain admits — or compensates
// its own clients — for an offer nobody takes; WalkPeers returns it with
// its peer's index. The first peer's refusal ends the walk unless
// Forwardable accepts it; a later peer's refusal moves the walk on. When
// every peer declines it returns ErrNoDomainCanServe wrapping the first
// peer's refusal, with the others' in the order they were asked. peers
// must not be empty. The federation walks its home broker and then its
// neighbors, the cluster front the client's ring order.
func WalkPeers(peers []Peer, ask func(n int, p Peer) (*Offer, error)) (*Offer, int, error) {
	var homeErr error
	var attempts []string
	for n, p := range peers {
		offer, err := ask(n, p)
		switch {
		case err == nil:
			return offer, n, nil
		case n > 0:
			attempts = append(attempts, fmt.Sprintf("%s: %v", p.PeerDomain(), err))
		case !Forwardable(err):
			return nil, 0, err
		default:
			homeErr = err
		}
	}
	return nil, 0, fmt.Errorf("%w: home %q: %v; neighbors: %v",
		ErrNoDomainCanServe, peers[0].PeerDomain(), homeErr, attempts)
}

// Forwardable reports whether another domain might serve a request this
// broker refused with err: no matching service, a shortage of capacity
// or budget (a neighbor with different capacity might not share it), or
// the transient refusal of a broker mid-Recover. Validation failures are
// the client's problem and are not forwarded. WalkPeers applies it to the
// first refusal of a walk.
func Forwardable(err error) bool {
	return errors.Is(err, ErrNoService) || errors.Is(err, ErrCannotHonor) ||
		errors.Is(err, ErrOverBudget) || errors.Is(err, ErrBestEffortFull) ||
		errors.Is(err, ErrPeerUnavailable)
}

// Mount installs the federation as the admit function of the home
// broker's request operation (ops.go) and mounts the broker's SOAP
// handlers. Every binding of the home broker — SOAP here, the JSON API
// wherever it is mounted — then forwards what the domain cannot serve,
// and offers carry the Domain where the client concludes the SLA.
func (f *Federation) Mount(mux *soapx.Mux) {
	f.home.fed.Store(f)
	f.home.Mount(mux)
}

// PeerClient adapts a remote broker client to the Peer interface.
type PeerClient struct {
	// Domain is the remote domain's name.
	Domain string
	// Client is the SOAP client pointed at the remote broker.
	Client *Client
}

// PeerDomain implements Peer.
func (p *PeerClient) PeerDomain() string { return p.Domain }

// PeerRequest implements Peer: the remote offer's wire form is decoded
// back into an Offer (the remote broker holds the session; only the
// document and price travel).
func (p *PeerClient) PeerRequest(req Request) (*Offer, error) {
	// Refusals come back typed (Client.call): a recovering remote broker's
	// ErrPeerUnavailable reaches the caller's retry policy as the transient
	// refusal it is, not as a dead peer.
	resp, err := p.Client.RequestService(req)
	if err != nil {
		return nil, err
	}
	// The offer is outside input: one that does not validate, or whose
	// expiry is missing or does not parse, is declined, and the federation
	// moves on to the next peer.
	doc, err := sla.DecodeDocument(resp.SLA)
	if err == nil {
		err = doc.Validate()
	}
	if err != nil {
		return nil, fmt.Errorf("core: decode peer offer: %w", err)
	}
	expires, err := time.Parse(xmlmsg.TimeLayout, resp.Expires)
	if err != nil {
		return nil, fmt.Errorf("core: decode peer offer expiry: %w", err)
	}
	return &Offer{SLA: doc, Price: resp.Price, Expires: expires}, nil
}

var _ Peer = (*PeerClient)(nil)
