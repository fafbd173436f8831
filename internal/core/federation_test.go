package core

import (
	"errors"
	"net/http/httptest"
	"testing"
	"time"

	"gqosm/internal/clockx"
	"gqosm/internal/gara"
	"gqosm/internal/nrm"
	"gqosm/internal/registry"
	"gqosm/internal/resource"
	"gqosm/internal/sla"
	"gqosm/internal/soapx"
	"gqosm/internal/xmlmsg"
)

// domainBroker builds a small single-domain broker for federation tests:
// a registry advertising serviceName, a compute pool of the given size.
func domainBroker(t *testing.T, domain, serviceName string, nodes float64) *Broker {
	t.Helper()
	clock := clockx.NewManual(t0)
	pool := resource.NewPool(domain, resource.Nodes(nodes))
	g := gara.NewSystem()
	g.RegisterManager(gara.NewComputeManager(pool))
	reg := registry.New(clock)
	if _, err := reg.Register(registry.Service{
		Name:       serviceName,
		Provider:   domain,
		Properties: []registry.Property{registry.NumProp("cpu-nodes", nodes)},
	}); err != nil {
		t.Fatal(err)
	}
	b, err := NewBroker(Config{
		Domain: domain,
		Clock:  clock,
		Plan: CapacityPlan{
			Guaranteed: resource.Nodes(nodes * 0.6),
			Adaptive:   resource.Nodes(nodes * 0.2),
			BestEffort: resource.Nodes(nodes * 0.2),
		},
		Registry:      reg,
		GARA:          g,
		ConfirmWindow: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(b.Close)
	return b
}

func nodeRequest(service string, n float64) Request {
	return Request{
		Service: service,
		Client:  "fed-client",
		Class:   sla.ClassGuaranteed,
		Spec:    sla.NewSpec(sla.Exact(resource.CPU, n)),
		Start:   t0,
		End:     t5,
	}
}

// TestFigure1Architecture wires the Fig. 1 picture: two administrative
// domains, each with its own AQoS + RM, the client's home AQoS forwarding
// to the neighbor when the local domain cannot serve.
func TestFigure1Architecture(t *testing.T) {
	home := domainBroker(t, "domain1", "solver", 20)
	neighbor := domainBroker(t, "domain2", "renderer", 40)

	fed := NewFederation(home)
	if err := fed.AddPeer(neighbor); err != nil || len(fed.peers) != 1 || fed.peers[0].PeerDomain() != "domain2" {
		t.Fatalf("AddPeer: %v, peers = %v", err, fed.peers)
	}

	// A request the home domain serves stays home.
	local, err := fed.RequestService(nodeRequest("solver", 4))
	if err != nil {
		t.Fatalf("local request: %v", err)
	}
	if local.Domain != "domain1" || local.Forwarded {
		t.Errorf("local offer = %+v", local)
	}

	// A service only the neighbor advertises is forwarded.
	remote, err := fed.RequestService(nodeRequest("renderer", 4))
	if err != nil {
		t.Fatalf("forwarded request: %v", err)
	}
	if remote.Domain != "domain2" || !remote.Forwarded {
		t.Errorf("remote offer = %+v", remote)
	}
	// The session lives on the neighbor broker.
	if _, err := neighbor.Session(remote.SLA.ID); err != nil {
		t.Errorf("session not on neighbor: %v", err)
	}
	if _, err := home.Session(remote.SLA.ID); err == nil {
		t.Error("session leaked onto home broker")
	}
	if err := neighbor.Accept(remote.SLA.ID); err != nil {
		t.Errorf("accept on neighbor: %v", err)
	}
	// The home activity log records the forwarding.
	found := false
	for _, e := range home.Events() {
		if e.Kind == "federation" {
			found = true
		}
	}
	if !found {
		t.Error("no federation event logged")
	}
}

func TestFederationCapacityOverflow(t *testing.T) {
	// Both domains advertise the same service; home is small, neighbor
	// large. Oversized requests flow to the neighbor.
	home := domainBroker(t, "small", "solver", 10) // C_G = 6
	neighbor := domainBroker(t, "big", "solver", 50)
	fed := NewFederation(home)
	fed.AddPeer(neighbor)

	offer, err := fed.RequestService(nodeRequest("solver", 20))
	if err != nil {
		t.Fatalf("overflow request: %v", err)
	}
	if offer.Domain != "big" || !offer.Forwarded {
		t.Errorf("offer = %+v", offer)
	}
}

func TestFederationAllDecline(t *testing.T) {
	home := domainBroker(t, "d1", "solver", 10)
	neighbor := domainBroker(t, "d2", "solver", 10)
	fed := NewFederation(home)
	fed.AddPeer(neighbor)
	if _, err := fed.RequestService(nodeRequest("solver", 100)); !errors.Is(err, ErrNoDomainCanServe) {
		t.Fatalf("err = %v, want ErrNoDomainCanServe", err)
	}
	// Validation errors are not forwarded.
	bad := nodeRequest("solver", 4)
	bad.End = bad.Start
	if _, err := fed.RequestService(bad); errors.Is(err, ErrNoDomainCanServe) {
		t.Fatalf("validation error was forwarded: %v", err)
	}
}

func TestFederationOverSOAP(t *testing.T) {
	// The neighbor is remote: reachable only through its SOAP endpoint.
	home := domainBroker(t, "local", "solver", 10)
	remote := domainBroker(t, "remote", "renderer", 40)
	mux := soapx.NewMux()
	remote.Mount(mux)
	srv := httptest.NewServer(mux)
	defer srv.Close()

	fed := NewFederation(home)
	fed.AddPeer(&PeerClient{Domain: "remote", Client: NewClient(srv.URL)})

	offer, err := fed.RequestService(nodeRequest("renderer", 8))
	if err != nil {
		t.Fatalf("remote federation: %v", err)
	}
	if offer.Domain != "remote" || !offer.Forwarded {
		t.Errorf("offer = %+v", offer)
	}
	if offer.SLA == nil || offer.Price <= 0 {
		t.Errorf("offer payload = %+v", offer)
	}
	// The client concludes the SLA against the remote broker directly.
	if err := remote.Accept(offer.SLA.ID); err != nil {
		t.Errorf("accept on remote: %v", err)
	}
}

// TestFederationDeclinesInvalidPeerOffer: a remote broker's offer is
// outside input. A peer that answers with a document that does not
// validate (here an empty SLA-ID), or with a valid document whose expiry
// is missing or does not parse, is a decline, and the walk moves on to
// the next peer.
func TestFederationDeclinesInvalidPeerOffer(t *testing.T) {
	// A real offer's document, for the replies whose only fault is the
	// expiry.
	valid, err := domainBroker(t, "forger", "renderer", 40).RequestService(nodeRequest("renderer", 8))
	if err != nil {
		t.Fatal(err)
	}
	expires := valid.Expires.Format(xmlmsg.TimeLayout)
	for name, reply := range map[string]*xmlmsg.ServiceOfferXML{
		"no SLA-ID": {SLA: sla.EncodeDocument(&sla.Document{Service: "renderer", Class: sla.ClassGuaranteed,
			Spec: sla.NewSpec(sla.Exact(resource.CPU, 8)), State: sla.StateProposed}), Price: 1, Expires: expires},
		"no expiry":  {SLA: sla.EncodeDocument(valid.SLA), Price: valid.Price},
		"bad expiry": {SLA: sla.EncodeDocument(valid.SLA), Price: valid.Price, Expires: "tomorrow"},
	} {
		t.Run(name, func(t *testing.T) {
			mux := soapx.NewMux()
			mux.Handle("service_request", func(func(any) error) (any, error) { return reply, nil })
			forger := httptest.NewServer(mux)
			defer forger.Close()

			fed := NewFederation(domainBroker(t, "local", "solver", 10))
			fed.AddPeer(&PeerClient{Domain: "forger", Client: NewClient(forger.URL)})
			fed.AddPeer(domainBroker(t, "remote", "renderer", 40))
			offer, err := fed.RequestService(nodeRequest("renderer", 8))
			if err != nil {
				t.Fatalf("federation: %v", err)
			}
			if offer.Domain != "remote" || offer.SLA.ID == "" || offer.Expires.IsZero() {
				t.Errorf("offer from %q with SLA-ID %q expiring %v, want the valid one from remote",
					offer.Domain, offer.SLA.ID, offer.Expires)
			}
		})
	}
}

func TestFederationNRMCrossDomainCoordination(t *testing.T) {
	// §2.1: "the NRM is also responsible for managing inter-domain
	// communication with NRMs in neighboring domains, in order to
	// coordinate SLAs across domain boundaries." Two NRMs share the
	// topology; a flow reserved by one is visible as link usage to the
	// other.
	topo := nrm.NewTopology()
	if err := topo.AddDomain("d1", "10.1.0.0/16"); err != nil {
		t.Fatal(err)
	}
	if err := topo.AddDomain("d2", "10.2.0.0/16"); err != nil {
		t.Fatal(err)
	}
	if err := topo.AddLink("d1", "d2", 100); err != nil {
		t.Fatal(err)
	}
	nrm1 := nrm.NewManager("d1", topo)
	nrm2 := nrm.NewManager("d2", topo)

	if _, err := nrm1.Reserve("10.1.0.5", "10.2.0.7", 80, t0, t5, "sla-x"); err != nil {
		t.Fatal(err)
	}
	// The neighbor NRM sees the commitment and refuses to oversubscribe
	// the shared link.
	if _, err := nrm2.Reserve("10.2.0.7", "10.1.0.5", 50, t0, t5, "sla-y"); !errors.Is(err, nrm.ErrInsufficientBandwidth) {
		t.Fatalf("cross-domain oversubscription err = %v", err)
	}
	if _, err := nrm2.Reserve("10.2.0.7", "10.1.0.5", 20, t0, t5, "sla-y"); err != nil {
		t.Fatalf("fitting cross-domain reservation: %v", err)
	}
}

func TestFederationMount(t *testing.T) {
	home := domainBroker(t, "local", "solver", 10)
	neighbor := domainBroker(t, "remote", "renderer", 40)
	fed := NewFederation(home)
	fed.AddPeer(neighbor)

	mux := soapx.NewMux()
	fed.Mount(mux)
	srv := httptest.NewServer(mux)
	defer srv.Close()
	client := NewClient(srv.URL)

	// A forwarded request reports the serving domain on the wire.
	resp, err := client.RequestService(nodeRequest("renderer", 4))
	if err != nil {
		t.Fatalf("federated remote request: %v", err)
	}
	if resp.Domain != "remote" {
		t.Errorf("offer domain = %q, want remote", resp.Domain)
	}
	// A locally served request reports the home domain.
	resp, err = client.RequestService(nodeRequest("solver", 4))
	if err != nil {
		t.Fatalf("federated local request: %v", err)
	}
	if resp.Domain != "local" {
		t.Errorf("offer domain = %q, want local", resp.Domain)
	}
	// Other actions still route to the home broker.
	if _, err := client.Act(sla.ID(resp.SLA.SLAID), "accept", ""); err != nil {
		t.Fatalf("accept through federation mount: %v", err)
	}
}
