package core

import (
	"errors"
	"fmt"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gqosm/internal/resource"
	"gqosm/internal/rsl"
	"gqosm/internal/sla"
	"gqosm/internal/soapx"
)

// fakePeer is a scriptable Peer: it sleeps, then returns a canned offer
// or error.
type fakePeer struct {
	domain string
	delay  time.Duration
	offer  *Offer
	err    error
}

func newFakePeer(domain string, delay time.Duration, offer *Offer, err error) *fakePeer {
	return &fakePeer{domain: domain, delay: delay, offer: offer, err: err}
}

func (p *fakePeer) PeerDomain() string { return p.domain }

func (p *fakePeer) PeerRequest(Request) (*Offer, error) {
	if p.delay > 0 {
		time.Sleep(p.delay)
	}
	return p.offer, p.err
}

// countingPeer counts the requests a federation forwards to the peer it
// wraps.
type countingPeer struct {
	Peer
	requests atomic.Int64
}

func (p *countingPeer) PeerRequest(req Request) (*Offer, error) {
	p.requests.Add(1)
	return p.Peer.PeerRequest(req)
}

// TestFederationLosingNeighborUntouched: once an earlier-registered
// neighbor offers, a later one is never asked. Were it asked, admitting
// the request would compensate its own established client (scenario 1:
// cpu 25 degraded to its floor of 10) for an offer nobody takes, and a
// retracted offer runs no restore pass.
func TestFederationLosingNeighborUntouched(t *testing.T) {
	home := domainBroker(t, "home", "solver", 10) // C_G = 6: a cpu-20 request is forwarded
	winner := domainBroker(t, "winner", "solver", 50)
	loser := domainBroker(t, "loser", "solver", 50) // C_G = 30

	volunteer, err := loser.RequestService(Request{
		Service: "solver", Client: "volunteer", Class: sla.ClassControlledLoad,
		Spec:  sla.NewSpec(sla.Range(resource.CPU, 10, 25)),
		Start: t0, End: t5, AcceptDegradation: true,
	})
	if err != nil {
		t.Fatalf("volunteer request: %v", err)
	}
	if err := loser.Accept(volunteer.SLA.ID); err != nil {
		t.Fatalf("volunteer accept: %v", err)
	}
	if got := volunteer.SLA.Allocated.CPU; got != 25 {
		t.Fatalf("volunteer holds cpu %g, want 25", got)
	}
	entries := len(loser.Ledger().Entries())

	counted := &countingPeer{Peer: loser}
	fed := NewFederation(home)
	fed.AddPeer(winner)
	fed.AddPeer(counted)

	offer, err := fed.RequestService(nodeRequest("solver", 20))
	if err != nil {
		t.Fatalf("RequestService: %v", err)
	}
	if offer.Domain != "winner" || !offer.Forwarded {
		t.Fatalf("offer = %+v, want the first-registered neighbor to serve", offer)
	}
	doc, err := loser.Session(volunteer.SLA.ID)
	if err != nil {
		t.Fatal(err)
	}
	if doc.Allocated.CPU != 25 || doc.State != sla.StateEstablished {
		t.Errorf("loser's client is %s at cpu %g, want established at cpu 25", doc.State, doc.Allocated.CPU)
	}
	if n := counted.requests.Load(); n != 0 {
		t.Errorf("loser was asked %d time(s), want 0", n)
	}
	if docs := loser.Sessions(nil); len(docs) != 1 {
		t.Errorf("loser holds %d sessions, want only its own client", len(docs))
	}
	if got := len(loser.Ledger().Entries()); got != entries {
		t.Errorf("loser's ledger grew %d -> %d entries", entries, got)
	}
}

// TestFederationConcurrentCallers: callers that walk the same neighbors
// at once each get an offer or ErrNoDomainCanServe, and every session a
// neighbor holds is one some caller received.
func TestFederationConcurrentCallers(t *testing.T) {
	fed := NewFederation(domainBroker(t, "home", "solver", 10)) // C_G = 6: every cpu-8 request is forwarded
	neighbors := []*Broker{domainBroker(t, "east", "solver", 30), domainBroker(t, "west", "solver", 30)}
	for _, n := range neighbors {
		if err := fed.AddPeer(n); err != nil {
			t.Fatal(err)
		}
	}

	const callers = 8
	offers := make([]*FederatedOffer, callers)
	errs := make([]error, callers)
	var wg sync.WaitGroup
	for i := range callers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			req := nodeRequest("solver", 8)
			req.Client = fmt.Sprintf("caller-%d", i)
			offers[i], errs[i] = fed.RequestService(req)
		}()
	}
	wg.Wait()

	received := map[sla.ID]string{} // offered SLA -> the domain that made it
	for i, err := range errs {
		switch {
		case err == nil:
			received[offers[i].SLA.ID] = offers[i].Domain
		case !errors.Is(err, ErrNoDomainCanServe):
			t.Errorf("caller %d: err = %v, want an offer or ErrNoDomainCanServe", i, err)
		}
	}
	if len(received) == 0 || len(received) == callers {
		t.Errorf("%d of %d callers got an offer; the neighbors should serve some and decline the rest", len(received), callers)
	}
	held := 0
	for _, n := range neighbors {
		for _, doc := range n.Sessions(nil) {
			if doc.State.Terminal() {
				continue
			}
			held++
			if doc.State == sla.StateProposed && received[doc.ID] != n.PeerDomain() {
				t.Errorf("%s holds proposed %s that no caller received", n.PeerDomain(), doc.ID)
			}
		}
	}
	if held != len(received) {
		t.Errorf("neighbors hold %d sessions, callers received %d offers", held, len(received))
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
// failure shapes — fault and refused connection — coexist in one error,
// in the order the peers were asked.
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
	msg := err.Error()
	tiny, gone := strings.Index(msg, "tiny: "), strings.Index(msg, "gone: ")
	if tiny < 0 || gone < 0 {
		t.Errorf("aggregate error missing a peer: %v", err)
	} else if tiny > gone {
		t.Errorf("aggregate error names gone before tiny, want registration order: %v", err)
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

// refusingRM is a compute resource manager that refuses every
// reservation with err.
type refusingRM struct{ err error }

func (refusingRM) Type() string { return "compute" }
func (r refusingRM) Reserve(*rsl.Node, time.Time, time.Time, string) (string, error) {
	return "", r.err
}
func (r refusingRM) Modify(string, *rsl.Node) error { return r.err }
func (refusingRM) Cancel(string) error              { return nil }

// TestForwardable walks every sentinel of the error taxonomy through a
// federation whose home broker refuses with it, and a counting neighbor
// that could serve the request. The refusals Forwardable accepts reach
// the neighbor, which serves; every other comes back as it is and the
// neighbor is never asked.
func TestForwardable(t *testing.T) {
	forwardable := map[error]bool{ErrNoService: true, ErrCannotHonor: true, ErrOverBudget: true,
		ErrBestEffortFull: true, ErrPeerUnavailable: true}
	for _, row := range taxonomy {
		t.Run(row.code, func(t *testing.T) {
			home := domainBroker(t, "home", "solver", 10)
			if row.err == ErrPeerUnavailable {
				// The RM-facing retry policy would spend a transient refusal
				// as budget; a broker refuses with it while it recovers.
				home.recovering.Store(true)
			} else {
				home.cfg.GARA.RegisterManager(refusingRM{row.err})
			}
			peer := &countingPeer{Peer: domainBroker(t, "neighbor", "solver", 40)}
			fed := NewFederation(home)
			if err := fed.AddPeer(peer); err != nil {
				t.Fatal(err)
			}

			offer, err := fed.RequestService(nodeRequest("solver", 4))
			switch asked := peer.requests.Load(); {
			case forwardable[row.err]:
				if asked != 1 || err != nil || offer.Domain != "neighbor" || !offer.Forwarded {
					t.Fatalf("neighbor asked %d time(s), offer %+v, err %v; want the neighbor's offer", asked, offer, err)
				}
			case asked != 0 || !errors.Is(err, row.err):
				t.Fatalf("neighbor asked %d time(s), err %v; want %v back unforwarded", asked, err, row.err)
			}
		})
	}
}
