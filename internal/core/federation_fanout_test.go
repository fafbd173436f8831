package core

import (
	"errors"
	"fmt"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"gqosm/internal/sla"
	"gqosm/internal/soapx"
)

// fakePeer is a scriptable Peer for fan-out tests: it sleeps, then
// returns a canned offer or error, and records retractions.
type fakePeer struct {
	domain   string
	delay    time.Duration
	offer    *Offer
	err      error
	requests atomic.Int64
	rejected chan sla.ID
}

func newFakePeer(domain string, delay time.Duration, offer *Offer, err error) *fakePeer {
	return &fakePeer{domain: domain, delay: delay, offer: offer, err: err,
		rejected: make(chan sla.ID, 4)}
}

func (p *fakePeer) PeerDomain() string { return p.domain }

func (p *fakePeer) PeerRequest(Request) (*Offer, error) {
	p.requests.Add(1)
	if p.delay > 0 {
		time.Sleep(p.delay)
	}
	return p.offer, p.err
}

func (p *fakePeer) PeerReject(id sla.ID) error {
	p.rejected <- id
	return nil
}

func fakeOffer(id string) *Offer {
	return &Offer{SLA: &sla.Document{ID: sla.ID(id), State: sla.StateProposed}}
}

// TestFederationFanOutConcurrent: N slow peers must be queried in
// parallel — the aggregate decline returns in roughly one peer's latency,
// not the sum of all of them.
func TestFederationFanOutConcurrent(t *testing.T) {
	home := domainBroker(t, "home", "solver", 10)
	fed := NewFederation(home)
	const peerDelay = 100 * time.Millisecond
	for i := 0; i < 4; i++ {
		fed.AddPeer(newFakePeer(fmt.Sprintf("slow-%d", i), peerDelay, nil, ErrCannotHonor))
	}

	start := time.Now()
	_, err := fed.RequestService(nodeRequest("solver", 100)) // over home capacity
	elapsed := time.Since(start)
	if !errors.Is(err, ErrNoDomainCanServe) {
		t.Fatalf("err = %v, want ErrNoDomainCanServe", err)
	}
	// Serialized, four peers would take ≥ 400ms; concurrent fan-out takes
	// ~one delay. The generous bound keeps slow CI machines green.
	if elapsed >= 3*peerDelay {
		t.Errorf("4 slow peers took %v — fan-out appears serialized", elapsed)
	}
}

// TestFederationFanOutRegistrationOrderWins: a slow early-registered peer
// beats a fast later one, preserving the sequential loop's preference
// order, and the loser's offer is retracted.
func TestFederationFanOutRegistrationOrderWins(t *testing.T) {
	home := domainBroker(t, "home", "solver", 10)
	fed := NewFederation(home)
	slow := newFakePeer("first-slow", 80*time.Millisecond, fakeOffer("sla-first"), nil)
	fast := newFakePeer("second-fast", 0, fakeOffer("sla-second"), nil)
	fed.AddPeer(slow)
	fed.AddPeer(fast)

	offer, err := fed.RequestService(nodeRequest("solver", 100))
	if err != nil {
		t.Fatalf("RequestService: %v", err)
	}
	if offer.Domain != "first-slow" || !offer.Forwarded {
		t.Fatalf("offer = %+v, want the first-registered peer to win", offer)
	}
	// The fast loser's offer is retracted in the background; Quiesce
	// waits for it.
	fed.Quiesce()
	select {
	case id := <-fast.rejected:
		if id != "sla-second" {
			t.Errorf("retracted %q, want sla-second", id)
		}
	default:
		t.Error("losing peer's offer not retracted once the fan-out quiesced")
	}
}

// TestFederationFanOutEarlyWinnerNoWait: when the first-registered peer
// answers fast, the caller does not wait out a slow later peer; the slow
// peer's eventual offer is still retracted.
func TestFederationFanOutEarlyWinnerNoWait(t *testing.T) {
	home := domainBroker(t, "home", "solver", 10)
	fed := NewFederation(home)
	fast := newFakePeer("fast", 0, fakeOffer("sla-fast"), nil)
	slow := newFakePeer("slow", 150*time.Millisecond, fakeOffer("sla-slow"), nil)
	fed.AddPeer(fast)
	fed.AddPeer(slow)

	start := time.Now()
	offer, err := fed.RequestService(nodeRequest("solver", 100))
	elapsed := time.Since(start)
	if err != nil {
		t.Fatalf("RequestService: %v", err)
	}
	if offer.Domain != "fast" {
		t.Fatalf("offer from %q, want fast", offer.Domain)
	}
	if elapsed >= 100*time.Millisecond {
		t.Errorf("fast winner still waited %v on the slow peer", elapsed)
	}
	fed.Quiesce()
	select {
	case id := <-slow.rejected:
		if id != "sla-slow" {
			t.Errorf("retracted %q, want sla-slow", id)
		}
	default:
		t.Error("slow loser's offer not retracted once the fan-out quiesced")
	}
}

// TestFederationPeerConnectionRefused: a SOAP peer whose endpoint is down
// (connection refused) degrades into the aggregate decline; the home
// broker's own state is untouched.
func TestFederationPeerConnectionRefused(t *testing.T) {
	home := domainBroker(t, "home", "solver", 10)
	headroomBefore := home.Allocator().AvailableGuaranteed()

	dead := httptest.NewServer(nil)
	deadURL := dead.URL
	dead.Close() // nothing listens here any more

	fed := NewFederation(home)
	fed.AddPeer(&PeerClient{Domain: "unreachable", Client: NewClient(deadURL)})

	_, err := fed.RequestService(nodeRequest("solver", 100))
	if !errors.Is(err, ErrNoDomainCanServe) {
		t.Fatalf("err = %v, want ErrNoDomainCanServe", err)
	}
	if !strings.Contains(err.Error(), "unreachable") {
		t.Errorf("aggregate error does not name the dead peer: %v", err)
	}
	if got := home.Allocator().AvailableGuaranteed(); !got.Equal(headroomBefore) {
		t.Errorf("home headroom changed: %v -> %v", headroomBefore, got)
	}
	if docs := home.Sessions(nil); len(docs) != 0 {
		t.Errorf("home gained %d session(s) from a failed federation", len(docs))
	}
}

// TestFederationPeerSOAPFault: a reachable SOAP peer that declines (a
// SOAP fault on the wire) also lands in the aggregate decline, and both
// failure shapes — fault and refused connection — coexist in one error.
func TestFederationPeerSOAPFault(t *testing.T) {
	home := domainBroker(t, "home", "solver", 10)
	headroomBefore := home.Allocator().AvailableGuaranteed()

	// The remote broker is up but far too small: it answers with a SOAP
	// fault carrying its admission error.
	remote := domainBroker(t, "tiny", "solver", 2)
	mux := soapx.NewMux()
	remote.Mount(mux)
	srv := httptest.NewServer(mux)
	defer srv.Close()

	dead := httptest.NewServer(nil)
	deadURL := dead.URL
	dead.Close()

	fed := NewFederation(home)
	fed.AddPeer(&PeerClient{Domain: "tiny", Client: NewClient(srv.URL)})
	fed.AddPeer(&PeerClient{Domain: "gone", Client: NewClient(deadURL)})

	_, err := fed.RequestService(nodeRequest("solver", 100))
	if !errors.Is(err, ErrNoDomainCanServe) {
		t.Fatalf("err = %v, want ErrNoDomainCanServe", err)
	}
	for _, domain := range []string{"tiny", "gone"} {
		if !strings.Contains(err.Error(), domain) {
			t.Errorf("aggregate error missing peer %q: %v", domain, err)
		}
	}
	if got := home.Allocator().AvailableGuaranteed(); !got.Equal(headroomBefore) {
		t.Errorf("home headroom changed: %v -> %v", headroomBefore, got)
	}
	if docs := home.Sessions(nil); len(docs) != 0 {
		t.Errorf("home gained %d session(s) from a failed federation", len(docs))
	}
	// The remote broker holds no half-open session either.
	if docs := remote.Sessions(nil); len(docs) != 0 {
		for _, d := range docs {
			if !d.State.Terminal() && d.State != sla.StateProposed {
				t.Errorf("remote session %s in state %s after decline", d.ID, d.State)
			}
		}
	}
}
