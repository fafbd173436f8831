package core

// Hand-off and cluster-satellite regression tests: peer dedupe, the
// recovery-gated transient refusal on the fan-out path, and the
// crash-mid-migration interleavings (source killed after the target
// committed; target killed mid-import) recovered from the WAL.

import (
	"errors"
	"strings"
	"testing"
	"time"

	"gqosm/internal/clockx"
	"gqosm/internal/gara"
	"gqosm/internal/registry"
	"gqosm/internal/resource"
	"gqosm/internal/sla"
)

// handoffSide is one durable broker of a two-broker migration pair: its
// own pool, GARA and registry (exactly what a separate aqosd process
// owns) plus the Config kept around so tests can Crash and Recover it.
type handoffSide struct {
	broker *Broker
	cfg    Config
	g      *gara.System
}

func newHandoffSide(t *testing.T, domain string, nodes float64) *handoffSide {
	t.Helper()
	clock := clockx.NewManual(t0)
	pool := resource.NewPool(domain, resource.Nodes(nodes))
	g := gara.NewSystem()
	g.RegisterManager(gara.NewComputeManager(pool))
	reg := registry.New(clock)
	if _, err := reg.Register(registry.Service{
		Name:       "solver",
		Provider:   domain,
		Properties: []registry.Property{registry.NumProp("cpu-nodes", nodes)},
	}); err != nil {
		t.Fatal(err)
	}
	cfg := Config{
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
		Durability:    DurabilityConfig{Dir: t.TempDir()},
	}
	b, err := NewBroker(cfg)
	if err != nil {
		t.Fatal(err)
	}
	h := &handoffSide{broker: b, cfg: cfg, g: g}
	t.Cleanup(func() { h.broker.Close() })
	return h
}

// recoverSide crashes the side's broker and rebuilds it from the WAL.
func (h *handoffSide) recoverSide(t *testing.T) *RecoverStats {
	t.Helper()
	h.broker.Crash()
	b, stats, err := Recover(h.cfg)
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	h.broker = b
	return stats
}

// establishedSession admits and accepts one n-node guaranteed session.
func establishedSession(t *testing.T, b *Broker, n float64) sla.ID {
	t.Helper()
	offer, err := b.RequestService(nodeRequest("solver", n))
	if err != nil {
		t.Fatalf("RequestService: %v", err)
	}
	if err := b.Accept(offer.SLA.ID); err != nil {
		t.Fatalf("Accept: %v", err)
	}
	return offer.SLA.ID
}

// TestAddPeerDuplicateDomain: registering the same peer domain twice —
// or the home domain itself — is refused, so the fan-out never queries
// one broker twice nor double-retracts a losing offer.
func TestAddPeerDuplicateDomain(t *testing.T) {
	home := domainBroker(t, "domain1", "solver", 20)
	fed := NewFederation(home)

	if err := fed.AddPeer(newFakePeer("domain2", 0, nil, ErrCannotHonor)); err != nil {
		t.Fatalf("first AddPeer: %v", err)
	}
	if err := fed.AddPeer(newFakePeer("domain2", 0, nil, ErrCannotHonor)); !errors.Is(err, ErrDuplicatePeer) {
		t.Fatalf("duplicate domain: err = %v, want ErrDuplicatePeer", err)
	}
	if err := fed.AddPeer(newFakePeer("domain1", 0, nil, ErrCannotHonor)); !errors.Is(err, ErrDuplicatePeer) {
		t.Fatalf("home domain as peer: err = %v, want ErrDuplicatePeer", err)
	}
	if got := fed.Peers(); len(got) != 1 || got[0] != "domain2" {
		t.Fatalf("Peers = %v, want exactly [domain2]", got)
	}
}

// TestFederationRecoveringPeerReroutes: a recovering peer's transient
// refusal must not poison the fan-out — an earlier-registered recovering
// peer is skipped and a later healthy one serves the request.
func TestFederationRecoveringPeerReroutes(t *testing.T) {
	if !retryable(ErrPeerUnavailable) {
		t.Fatal("ErrPeerUnavailable must be retryable, or the front tier treats a recovering broker as dead")
	}

	home := domainBroker(t, "home", "solver", 10)
	healthy := domainBroker(t, "healthy", "solver", 200)
	fed := NewFederation(home)
	fed.AddPeer(newFakePeer("rebooting", 0, nil, ErrPeerUnavailable))
	fed.AddPeer(healthy)

	offer, err := fed.RequestService(nodeRequest("solver", 100)) // over home capacity
	if err != nil {
		t.Fatalf("RequestService: %v", err)
	}
	if offer.Domain != "healthy" || !offer.Forwarded {
		t.Fatalf("offer = %+v, want re-route to the healthy peer", offer)
	}

	// With ONLY recovering peers the aggregate decline names the transient
	// refusal, so a front tier can tell "retry soon" from "nobody ever can".
	lonely := NewFederation(domainBroker(t, "lonely", "solver", 10))
	lonely.AddPeer(newFakePeer("rebooting", 0, nil, ErrPeerUnavailable))
	_, err = lonely.RequestService(nodeRequest("solver", 100))
	if !errors.Is(err, ErrNoDomainCanServe) {
		t.Fatalf("err = %v, want ErrNoDomainCanServe", err)
	}
	if !strings.Contains(err.Error(), ErrPeerUnavailable.Error()) {
		t.Errorf("aggregate decline does not carry the transient marker: %v", err)
	}
}

// TestFederationRestartDuringFanout: a fan-out that reaches a broker
// mid-WAL-replay gets the recovery-gated ErrPeerUnavailable, and the
// same federation serves the request once recovery lands.
func TestFederationRestartDuringFanout(t *testing.T) {
	home := domainBroker(t, "home", "solver", 10)
	side := newHandoffSide(t, "peerdom", 200)
	side.broker.Crash()

	var midErr error
	recoverTestHook = func(rb *Broker) {
		fed := NewFederation(home)
		fed.AddPeer(rb)
		_, midErr = fed.RequestService(nodeRequest("solver", 100))
	}
	defer func() { recoverTestHook = nil }()

	rb, _, err := Recover(side.cfg)
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	t.Cleanup(rb.Close)

	if !errors.Is(midErr, ErrNoDomainCanServe) {
		t.Fatalf("mid-recovery fan-out err = %v, want ErrNoDomainCanServe", midErr)
	}
	if !strings.Contains(midErr.Error(), ErrPeerUnavailable.Error()) {
		t.Errorf("mid-recovery decline lost the transient marker: %v", midErr)
	}

	fed := NewFederation(home)
	fed.AddPeer(rb)
	offer, err := fed.RequestService(nodeRequest("solver", 100))
	if err != nil {
		t.Fatalf("post-recovery RequestService: %v", err)
	}
	if offer.Domain != "peerdom" || !offer.Forwarded {
		t.Fatalf("offer = %+v, want the recovered peer to serve", offer)
	}
}

// TestHandoffSourceCrashAfterTargetCommit is the satellite-3
// interleaving at the unit level: the source broker dies after the
// target committed the import; recovery replays the outbound intent,
// the reconcile completes it, and exactly one owner remains with no
// leaked reservation or capacity on the source.
func TestHandoffSourceCrashAfterTargetCommit(t *testing.T) {
	src := newHandoffSide(t, "srcdom", 40)
	dst := domainBroker(t, "dstdom", "solver", 40)

	freeBefore := src.broker.Allocator().AvailableGuaranteed()
	id := establishedSession(t, src.broker, 5)

	st, err := src.broker.BeginHandoff(id, "dstdom")
	if err != nil {
		t.Fatalf("BeginHandoff: %v", err)
	}
	if err := dst.ImportSession(st); err != nil {
		t.Fatalf("ImportSession: %v", err)
	}
	if doc, err := dst.Session(id); err != nil || doc.State.Terminal() || doc.Provider != "dstdom" {
		t.Fatalf("target copy = %+v, %v; want a live session re-stamped to dstdom", doc, err)
	}

	// Kill the source AFTER the target committed, before CompleteHandoff.
	src.recoverSide(t)

	if ho := src.broker.HandoffsOut(); ho[id] != "dstdom" {
		t.Fatalf("HandoffsOut = %v, want the out-intent toward dstdom to survive the crash", ho)
	}
	// The draining session still refuses ordinary teardown.
	if err := src.broker.Terminate(id, "client asks"); !errors.Is(err, ErrHandoffPending) {
		t.Fatalf("Terminate during hand-off: err = %v, want ErrHandoffPending", err)
	}

	// The front tier's reconcile sees the target live and completes.
	if err := src.broker.CompleteHandoff(id); err != nil {
		t.Fatalf("CompleteHandoff: %v", err)
	}

	srcDoc, err := src.broker.Session(id)
	if err != nil || !srcDoc.State.Terminal() {
		t.Fatalf("source copy = %+v, %v; want terminal", srcDoc, err)
	}
	dstDoc, err := dst.Session(id)
	if err != nil || dstDoc.State.Terminal() {
		t.Fatalf("target copy = %+v, %v; want the single surviving owner", dstDoc, err)
	}
	if _, ok := src.g.FindByTag(string(id)); ok {
		t.Error("source reservation survived the completed hand-off")
	}
	if got := src.broker.Allocator().AvailableGuaranteed(); !got.Equal(freeBefore) {
		t.Errorf("source guaranteed headroom = %v, want %v back after the drain", got, freeBefore)
	}
	if ho := src.broker.HandoffsOut(); len(ho) != 0 {
		t.Errorf("open intents after completion: %v", ho)
	}
}

// TestHandoffTargetCrashMidImport: the target dies inside ImportSession
// (after journaling the inbound intent, before installing the session).
// Target recovery resolves the dangling intent, the source aborts and
// remains the sole owner, and its lifecycle is unblocked again.
func TestHandoffTargetCrashMidImport(t *testing.T) {
	src := domainBroker(t, "srcdom", "solver", 40)
	dst := newHandoffSide(t, "dstdom", 40)

	id := establishedSession(t, src, 5)
	st, err := src.BeginHandoff(id, "dstdom")
	if err != nil {
		t.Fatalf("BeginHandoff: %v", err)
	}

	importTestHook = func(b *Broker) { b.Crash() }
	defer func() { importTestHook = nil }()
	if err := dst.broker.ImportSession(st); err == nil {
		t.Fatal("ImportSession on a crashing broker succeeded")
	}
	importTestHook = nil

	stats := dst.recoverSide(t)
	if stats.HandoffsResolved != 1 {
		t.Fatalf("HandoffsResolved = %d, want 1", stats.HandoffsResolved)
	}
	if _, err := dst.broker.Session(id); err == nil {
		t.Error("half-imported session resurrected on the target")
	}
	if _, ok := dst.g.FindByTag(string(id)); ok {
		t.Error("half-imported reservation leaked on the target")
	}

	if err := src.AbortHandoff(id); err != nil {
		t.Fatalf("AbortHandoff: %v", err)
	}
	if doc, err := src.Session(id); err != nil || doc.State.Terminal() {
		t.Fatalf("source copy = %+v, %v; want the source to remain owner", doc, err)
	}
	if err := src.Terminate(id, "after abort"); err != nil {
		t.Fatalf("Terminate after abort: %v", err)
	}
}

// TestRecoverReclaimsHalfImportedReservation: the narrow window where
// the import already committed its GARA reservation but not the session.
// The tag carries the SOURCE domain's prefix, so only the inbound-intent
// sweep — not the regular orphan sweep — can know to reclaim it.
func TestRecoverReclaimsHalfImportedReservation(t *testing.T) {
	dst := newHandoffSide(t, "dstdom", 40)
	b := dst.broker

	id := sla.ID("srcdom-sla-0001")
	spec := sla.NewSpec(sla.Exact(resource.CPU, 5))
	alloc := resource.Nodes(5)

	b.hoMu.Lock()
	b.handoffs[id] = handoffIntent{dir: "in", peer: "srcdom"}
	b.journalHandoffsLocked("handoff-import")
	b.hoMu.Unlock()
	if _, err := dst.g.Create(reservationRSL(spec, alloc), t0, t5, string(id)); err != nil {
		t.Fatalf("Create: %v", err)
	}

	stats := dst.recoverSide(t)
	if stats.HandoffsResolved != 1 {
		t.Fatalf("HandoffsResolved = %d, want 1", stats.HandoffsResolved)
	}
	if h, ok := dst.g.FindByTag(string(id)); ok {
		t.Errorf("half-imported reservation %s still live after recovery", h)
	}
	if ho := b.HandoffsOut(); len(ho) != 0 {
		t.Errorf("intents left open: %v", ho)
	}
}
