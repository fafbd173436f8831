package core

import (
	"errors"
	"fmt"
	"sort"
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
// to neighbor brokers in preference order, and the winning domain's offer
// is returned to the client unchanged.

// Peer is a neighboring AQoS broker. It is satisfied by *Broker (local
// wiring) and by *Client via PeerClient (SOAP wiring).
type Peer interface {
	// PeerDomain names the peer's administrative domain.
	PeerDomain() string
	// PeerRequest forwards a service request.
	PeerRequest(req Request) (*Offer, error)
	// PeerReject retracts a proposed SLA: the federation cleans up offers
	// that lost the registration-order race with it.
	PeerReject(id sla.ID) error
}

// PeerDomain implements Peer for the local broker.
func (b *Broker) PeerDomain() string { return b.cfg.Domain }

// PeerRequest implements Peer for the local broker.
func (b *Broker) PeerRequest(req Request) (*Offer, error) { return b.RequestService(req) }

// PeerReject implements Peer for the local broker.
func (b *Broker) PeerReject(id sla.ID) error { return b.Reject(id) }

var _ Peer = (*Broker)(nil)

// ErrNoDomainCanServe is returned when the local broker and every
// reachable neighbor decline a request.
var ErrNoDomainCanServe = errors.New("core: no domain can serve the request")

// ErrDuplicatePeer is returned by AddPeer for a peer whose domain is
// already registered (or is the home domain itself): the fan-out would
// otherwise try the same broker twice and could retract the same offer
// twice.
var ErrDuplicatePeer = errors.New("core: peer domain already registered")

// ErrPeerUnavailable is the recovery-gated refusal: a broker that is
// mid-Recover (WAL replay and RM reconciliation still in flight) refuses
// admissions with it instead of answering from half-installed state.
// Unlike a dead peer's ErrClosed it is transient — retryable() treats it
// like a flaky wire, so the fan-out retries within its budget and the
// front tier re-routes the admission instead of failing it.
var ErrPeerUnavailable = errors.New("core: peer broker temporarily unavailable (recovering)")

// Federation fronts a home broker with a set of neighbors. It is safe for
// concurrent use.
type Federation struct {
	home *Broker

	mu    sync.Mutex
	peers []Peer

	// wg tracks the fan-out's background goroutines (slow peers still
	// answering after an early winner, and loser retraction); Quiesce
	// waits for them so a harness can checkpoint without racing a
	// retraction.
	wg sync.WaitGroup
}

// NewFederation returns a federation around the home broker.
func NewFederation(home *Broker) *Federation {
	return &Federation{home: home}
}

// AddPeer registers a neighboring AQoS. Peers are tried in registration
// order. A peer whose domain is already registered — or that names the
// home domain — is rejected with ErrDuplicatePeer: forwarding to the
// same broker twice wastes a fan-out slot and can double-retract the
// same losing offer.
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

// Peers returns the neighbor domain names in trial order.
func (f *Federation) Peers() []string {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]string, len(f.peers))
	for i, p := range f.peers {
		out[i] = p.PeerDomain()
	}
	return out
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

// RequestService tries the home broker first, then each neighbor. It
// returns the first successful offer; when everyone declines it returns
// ErrNoDomainCanServe wrapping the home broker's error.
func (f *Federation) RequestService(req Request) (*FederatedOffer, error) {
	homeOffer, homeErr := f.home.RequestService(req)
	if homeErr == nil {
		return &FederatedOffer{Offer: *homeOffer, Domain: f.home.cfg.Domain}, nil
	}
	// Validation failures are the client's problem, not a capacity
	// issue: do not forward them. A recovery-gated home refusal IS
	// forwarded — a neighbor can serve while the home broker replays its
	// WAL.
	if !errors.Is(homeErr, ErrNoService) && !errors.Is(homeErr, ErrCannotHonor) &&
		!errors.Is(homeErr, ErrOverBudget) && !errors.Is(homeErr, ErrPeerUnavailable) &&
		!isCapacityError(homeErr) {
		return nil, homeErr
	}

	f.mu.Lock()
	peers := append([]Peer(nil), f.peers...)
	f.mu.Unlock()

	// Fan the request out to every neighbor at once; one slow or
	// unreachable peer no longer serializes the rest. The scan below walks
	// results in registration order, so the winning domain is the same one
	// the old sequential loop would have picked.
	results := make([]chan peerResult, len(peers))
	for i, p := range peers {
		ch := make(chan peerResult, 1)
		results[i] = ch
		f.wg.Add(1)
		go func(p Peer, ch chan<- peerResult) {
			defer f.wg.Done()
			// Each peer call runs under the home broker's retry policy:
			// a flaky wire is retried, a dead neighbor is given up on
			// after the budget instead of hanging the fan-out. A retry
			// after a lost reply may leave an extra temporary reservation
			// on the peer — its confirm window reclaims it, exactly like
			// any other unaccepted offer.
			var offer *Offer
			err := f.home.pol.call("peer.request", func() error {
				o, perr := p.PeerRequest(req)
				if perr == nil {
					offer = o
				}
				return perr
			})
			ch <- peerResult{offer: offer, err: err}
		}(p, ch)
	}
	var attempts []string
	for i, p := range peers {
		r := <-results[i]
		if r.err != nil {
			attempts = append(attempts, fmt.Sprintf("%s: %v", p.PeerDomain(), r.err))
			continue
		}
		// Peers past the winner are still in flight; retract whatever they
		// offer so losing domains do not sit on temporary reservations
		// until their confirm windows lapse.
		f.wg.Add(1)
		go func(losers []Peer, pending []chan peerResult) {
			defer f.wg.Done()
			retractLosers(losers, pending)
		}(peers[i+1:], results[i+1:])
		f.home.logf("federation", "", "request for %q forwarded to neighbor %q", req.Service, p.PeerDomain())
		return &FederatedOffer{Offer: *r.offer, Domain: p.PeerDomain(), Forwarded: true}, nil
	}
	sort.Strings(attempts)
	return nil, fmt.Errorf("%w: home %q: %v; neighbors: %v",
		ErrNoDomainCanServe, f.home.cfg.Domain, homeErr, attempts)
}

// Quiesce blocks until every background fan-out goroutine — slow peers
// still answering after an early winner, and the retraction of their
// losing offers — has finished. Checkpointing harnesses call it before
// asserting reservation hygiene; an in-flight retraction is not a leak.
func (f *Federation) Quiesce() { f.wg.Wait() }

// peerResult is one neighbor's answer to a fanned-out request.
type peerResult struct {
	offer *Offer
	err   error
}

// retractLosers drains the still-pending results of peers that lost to an
// earlier-registered winner and rejects any offer they produced.
func retractLosers(peers []Peer, results []chan peerResult) {
	for i, p := range peers {
		r := <-results[i]
		if r.err != nil || r.offer == nil {
			continue
		}
		_ = p.PeerReject(r.offer.SLA.ID)
	}
}

// isCapacityError reports whether err stems from resource shortage (which
// a neighbor with different capacity might not share).
func isCapacityError(err error) bool {
	return errors.Is(err, ErrCannotHonor) || errors.Is(err, ErrBestEffortFull)
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
	doc, err := sla.DecodeDocument(resp.SLA)
	if err != nil {
		return nil, fmt.Errorf("core: decode peer offer: %w", err)
	}
	offer := &Offer{SLA: doc, Price: resp.Price}
	if resp.Expires != "" {
		if t, err := time.Parse(xmlmsg.TimeLayout, resp.Expires); err == nil {
			offer.Expires = t
		}
	}
	return offer, nil
}

// PeerReject implements Peer: a losing concurrent offer is
// rejected on the remote broker so its temporary reservation is freed
// immediately instead of lapsing with the confirm window.
func (p *PeerClient) PeerReject(id sla.ID) error {
	_, err := p.Client.Act(id, "reject", "lost federation race")
	return err
}

var _ Peer = (*PeerClient)(nil)
