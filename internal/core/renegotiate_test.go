package core

import (
	"errors"
	"math"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"gqosm/internal/nrm"
	"gqosm/internal/pricing"
	"gqosm/internal/resource"
	"gqosm/internal/sla"
	"gqosm/internal/soapx"
)

func establishGuaranteed(t *testing.T, h *harness, nodes float64) sla.ID {
	t.Helper()
	req := guaranteedRequest()
	req.Spec = sla.NewSpec(sla.Exact(resource.CPU, nodes))
	offer, err := h.broker.RequestService(req)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.broker.Accept(offer.SLA.ID); err != nil {
		t.Fatal(err)
	}
	return offer.SLA.ID
}

func TestRenegotiateUpgrade(t *testing.T) {
	h := newHarness(t)
	id := establishGuaranteed(t, h, 6)
	revBefore := h.broker.Ledger().NetRevenue()

	res, err := h.broker.Renegotiate(id, sla.NewSpec(sla.Exact(resource.CPU, 12)))
	if err != nil {
		t.Fatalf("Renegotiate: %v", err)
	}
	if !res.New.Equal(resource.Nodes(12)) || !res.Old.Equal(resource.Nodes(6)) {
		t.Errorf("result = %+v", res)
	}
	if res.PriceDelta <= 0 {
		t.Errorf("upgrade delta = %g, want > 0", res.PriceDelta)
	}
	doc, _ := h.broker.Session(id)
	if !doc.Allocated.Equal(resource.Nodes(12)) {
		t.Errorf("allocated = %v", doc.Allocated)
	}
	if p, _ := doc.Spec.Params[resource.CPU]; p.Exact != 12 {
		t.Errorf("spec not replaced: %+v", p)
	}
	// The GARA reservation followed.
	if got := h.pool.InUse(t0).CPU; got != 12 {
		t.Errorf("pool CPU = %g, want 12", got)
	}
	// The upgrade was charged.
	gain := h.broker.Ledger().NetRevenue() - revBefore
	if math.Abs(gain-res.PriceDelta) > 1e-9 {
		t.Errorf("revenue gain %g != delta %g", gain, res.PriceDelta)
	}
}

func TestRenegotiateDowngradeRefunds(t *testing.T) {
	h := newHarness(t)
	id := establishGuaranteed(t, h, 12)
	revBefore := h.broker.Ledger().NetRevenue()
	res, err := h.broker.Renegotiate(id, sla.NewSpec(sla.Exact(resource.CPU, 4)))
	if err != nil {
		t.Fatal(err)
	}
	if res.PriceDelta >= 0 {
		t.Errorf("downgrade delta = %g, want < 0", res.PriceDelta)
	}
	if got := h.broker.Ledger().NetRevenue() - revBefore; math.Abs(got-res.PriceDelta) > 1e-9 {
		t.Errorf("revenue change %g != delta %g", got, res.PriceDelta)
	}
	if got := h.pool.InUse(t0).CPU; got != 4 {
		t.Errorf("pool CPU = %g, want 4", got)
	}
}

func TestRenegotiateControlledLoadClampsToHeadroom(t *testing.T) {
	h := newHarness(t)
	// A guaranteed session holds 10 of C_G=15.
	_ = establishGuaranteed(t, h, 10)
	// A controlled-load session with range [2,4].
	cl := controlledRequest("cl")
	cl.Spec = sla.NewSpec(sla.Range(resource.CPU, 2, 4))
	offer, err := h.broker.RequestService(cl)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.broker.Accept(offer.SLA.ID); err != nil {
		t.Fatal(err)
	}
	// Renegotiate to range [2,20]: only 15−10−held is free, so the new
	// allocation clamps to held(4) + headroom(1) = 5.
	res, err := h.broker.Renegotiate(offer.SLA.ID, sla.NewSpec(sla.Range(resource.CPU, 2, 20)))
	if err != nil {
		t.Fatal(err)
	}
	if res.New.CPU != 5 {
		t.Errorf("renegotiated to %v, want 5 (held 4 + headroom 1)", res.New)
	}
	doc, _ := h.broker.Session(offer.SLA.ID)
	if !doc.Spec.Accepts(doc.Allocated) {
		t.Errorf("allocation %v outside renegotiated spec", doc.Allocated)
	}
}

func TestRenegotiateWithCompensation(t *testing.T) {
	h := newHarness(t)
	// A willing controlled-load session fills most of the pool.
	volunteer := controlledRequest("volunteer")
	volunteer.Spec = sla.NewSpec(sla.Range(resource.CPU, 2, 10))
	vOffer, err := h.broker.RequestService(volunteer)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.broker.Accept(vOffer.SLA.ID); err != nil {
		t.Fatal(err)
	}
	id := establishGuaranteed(t, h, 5) // 10 + 5 = 15 full

	// Upgrading to 12 exceeds free capacity; the volunteer is degraded.
	res, err := h.broker.Renegotiate(id, sla.NewSpec(sla.Exact(resource.CPU, 12)))
	if err != nil {
		t.Fatalf("Renegotiate with compensation: %v", err)
	}
	if !res.Compensated {
		t.Error("not marked compensated")
	}
	vDoc, _ := h.broker.Session(vOffer.SLA.ID)
	if !vDoc.Allocated.Equal(vDoc.Spec.Floor()) {
		t.Errorf("volunteer = %v, want floor", vDoc.Allocated)
	}
}

func TestRenegotiateFailureKeepsOldAgreement(t *testing.T) {
	h := newHarness(t)
	// Fill the pool with an unwilling session.
	blocker := guaranteedRequest()
	blocker.Spec = sla.NewSpec(sla.Exact(resource.CPU, 10))
	bOffer, err := h.broker.RequestService(blocker)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.broker.Accept(bOffer.SLA.ID); err != nil {
		t.Fatal(err)
	}
	id := establishGuaranteed(t, h, 5)

	if _, err := h.broker.Renegotiate(id, sla.NewSpec(sla.Exact(resource.CPU, 12))); err == nil {
		t.Fatal("oversized renegotiation succeeded")
	}
	doc, _ := h.broker.Session(id)
	if !doc.Allocated.Equal(resource.Nodes(5)) {
		t.Errorf("allocation after failed renegotiation = %v, want 5", doc.Allocated)
	}
	if p, _ := doc.Spec.Params[resource.CPU]; p.Exact != 5 {
		t.Errorf("spec mutated by failed renegotiation: %+v", p)
	}
	if got := h.pool.InUse(t0).CPU; got != 15 {
		t.Errorf("pool CPU = %g, want 15", got)
	}
}

func TestRenegotiateValidation(t *testing.T) {
	h := newHarness(t)
	id := establishGuaranteed(t, h, 5)
	if _, err := h.broker.Renegotiate("ghost", sla.NewSpec(sla.Exact(resource.CPU, 1))); !errors.Is(err, ErrUnknownSession) {
		t.Errorf("ghost err = %v", err)
	}
	if _, err := h.broker.Renegotiate(id, sla.Spec{}); err == nil {
		t.Error("empty spec accepted")
	}
	if _, err := h.broker.Renegotiate(id, sla.NewSpec(sla.Exact(resource.CPU, -1))); err == nil {
		t.Error("invalid spec accepted")
	}
	// Proposed sessions cannot renegotiate.
	offer, err := h.broker.RequestService(guaranteedRequest())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.broker.Renegotiate(offer.SLA.ID, sla.NewSpec(sla.Exact(resource.CPU, 1))); !errors.Is(err, ErrBadState) {
		t.Errorf("proposed err = %v", err)
	}
}

func TestRenegotiateNetworkInheritsEndpoints(t *testing.T) {
	h := newHarness(t)
	offer, err := h.broker.RequestService(guaranteedRequest()) // has a 45 Mbps flow
	if err != nil {
		t.Fatal(err)
	}
	id := offer.SLA.ID
	if err := h.broker.Accept(id); err != nil {
		t.Fatal(err)
	}
	// Renegotiate bandwidth only; endpoints come from the old spec.
	res, err := h.broker.Renegotiate(id, sla.NewSpec(
		sla.Exact(resource.CPU, 10),
		sla.Exact(resource.MemoryMB, 2048),
		sla.Exact(resource.DiskGB, 15),
		sla.Exact(resource.BandwidthMbps, 80),
	))
	if err != nil {
		t.Fatalf("Renegotiate: %v", err)
	}
	if res.New.BandwidthMbps != 80 {
		t.Errorf("bandwidth = %g", res.New.BandwidthMbps)
	}
	flows := h.netMgr.Flows()
	if len(flows) != 1 || flows[0].Mbps != 80 {
		t.Fatalf("flows = %+v", flows)
	}
	if flows[0].SourceIP != "10.10.3.4" {
		t.Errorf("endpoints lost: %+v", flows[0])
	}
	doc, _ := h.broker.Session(id)
	if doc.Spec.SourceIP != "10.10.3.4" {
		t.Errorf("spec endpoints lost: %q", doc.Spec.SourceIP)
	}
}

func TestRenegotiateOverSOAP(t *testing.T) {
	h := newHarness(t)
	mux := soapx.NewMux()
	h.broker.Mount(mux)
	srv := httptest.NewServer(mux)
	defer srv.Close()
	client := NewClient(srv.URL)

	id := establishGuaranteed(t, h, 6)
	detail, err := client.Renegotiate(id, sla.NewSpec(sla.Exact(resource.CPU, 9)))
	if err != nil {
		t.Fatalf("remote Renegotiate: %v", err)
	}
	if !strings.Contains(detail, "cpu=9") {
		t.Errorf("detail = %q", detail)
	}
	doc, _ := h.broker.Session(id)
	if doc.Allocated.CPU != 9 {
		t.Errorf("allocated = %v", doc.Allocated)
	}
	// Faults propagate.
	if _, err := client.Renegotiate("ghost", sla.NewSpec(sla.Exact(resource.CPU, 1))); err == nil {
		t.Error("remote ghost renegotiation succeeded")
	}
}

func TestMonitorDrivesPeriodicManagement(t *testing.T) {
	h := newHarness(t)
	b := h.broker
	offer, err := b.RequestService(guaranteedRequest())
	if err != nil {
		t.Fatal(err)
	}
	id := offer.SLA.ID
	if err := b.Accept(id); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Invoke(id); err != nil {
		t.Fatal(err)
	}

	mon := NewMonitor(b, 10*time.Minute)
	mon.Start()
	mon.Start() // idempotent
	defer mon.Stop()

	// Congest the link: the next tick's NRM check must notify the broker
	// without any explicit Verify call.
	if err := h.topo.SetCongestion("site-a", "site-c", nrm.Congestion{BandwidthFactor: 0.3}); err != nil {
		t.Fatal(err)
	}
	h.clock.Advance(10 * time.Minute)
	if ticks(h.broker) != 1 {
		t.Fatalf("ticks = %d, want 1", ticks(h.broker))
	}
	if b.Violations(id) == 0 {
		t.Error("monitor tick did not surface the degradation")
	}

	// Recovery, then expiry: the monitor clears the session when its
	// window lapses.
	if err := h.topo.SetCongestion("site-a", "site-c", nrm.Congestion{}); err != nil {
		t.Fatal(err)
	}
	h.clock.Advance(6 * time.Hour)
	doc, _ := b.Session(id)
	if !doc.State.Terminal() {
		t.Errorf("state after expiry ticks = %v, want terminal", doc.State)
	}
	if ticks(h.broker) < 30 {
		t.Errorf("ticks = %d, want ~36 over 6h", ticks(h.broker))
	}

	mon.Stop()
	before := ticks(h.broker)
	h.clock.Advance(time.Hour)
	if ticks(h.broker) != before {
		t.Error("monitor ticked after Stop")
	}
	mon.Start() // Start after Stop stays stopped
	h.clock.Advance(time.Hour)
	if ticks(h.broker) != before {
		t.Error("monitor restarted after Stop")
	}
}

func TestViolationChargesPenalty(t *testing.T) {
	h := newHarness(t)
	req := guaranteedRequest()
	req.Penalty = sla.Penalty{PerViolation: 25}
	offer, err := h.broker.RequestService(req)
	if err != nil {
		t.Fatal(err)
	}
	id := offer.SLA.ID
	if err := h.broker.Accept(id); err != nil {
		t.Fatal(err)
	}
	if _, err := h.broker.Invoke(id); err != nil {
		t.Fatal(err)
	}
	revBefore := h.broker.Ledger().NetRevenue()
	if err := h.topo.SetCongestion("site-a", "site-c", nrm.Congestion{BandwidthFactor: 0.2}); err != nil {
		t.Fatal(err)
	}
	h.netMgr.CheckAll(h.clock.Now())
	violations := h.broker.Violations(id)
	if violations == 0 {
		t.Fatal("no violation recorded")
	}
	// Each violation cost the provider the agreed 25.
	want := revBefore - float64(violations)*25
	if got := h.broker.Ledger().NetRevenue(); math.Abs(got-want) > 1e-9 {
		t.Errorf("revenue = %g, want %g after %d violation(s)", got, want, violations)
	}
	// The penalty appears in the ledger with the right kind.
	found := false
	for _, e := range h.broker.Ledger().Entries() {
		if e.Kind == pricing.EntryPenalty && e.SLA == id {
			found = true
		}
	}
	if !found {
		t.Error("no penalty entry in the ledger")
	}
}

func TestCompensationTerminationDoesNotSelfDefeat(t *testing.T) {
	// A degraded volunteer plus a terminable victim: compensating a new
	// request by terminating the victim must not immediately restore the
	// volunteer with the freed capacity (which would starve the new
	// request).
	h := newHarness(t)
	b := h.broker

	volunteer := controlledRequest("volunteer")
	volunteer.Spec = sla.NewSpec(sla.Range(resource.CPU, 2, 8))
	vo, err := b.RequestService(volunteer)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Accept(vo.SLA.ID); err != nil {
		t.Fatal(err)
	}

	victim := controlledRequest("victim")
	victim.Spec = sla.NewSpec(sla.Range(resource.CPU, 7, 7))
	victim.AcceptDegradation = false
	victim.AcceptTermination = true
	victim.PromotionOptIn = false
	vi, err := b.RequestService(victim)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Accept(vi.SLA.ID); err != nil {
		t.Fatal(err)
	}

	// New guaranteed request for 12: volunteer degrades 8→2, victim (7)
	// terminates; 15 − 2 = 13 ≥ 12.
	req := guaranteedRequest()
	req.Spec = sla.NewSpec(sla.Exact(resource.CPU, 12))
	offer, err := b.RequestService(req)
	if err != nil {
		t.Fatalf("compensated request: %v", err)
	}
	if !offer.Compensated {
		t.Error("not marked compensated")
	}
	if !offer.SLA.Allocated.Equal(resource.Nodes(12)) {
		t.Errorf("allocated = %v, want 12", offer.SLA.Allocated)
	}
	vDoc, _ := b.Session(vi.SLA.ID)
	if vDoc.State != sla.StateTerminated {
		t.Errorf("victim state = %v", vDoc.State)
	}
	volDoc, _ := b.Session(vo.SLA.ID)
	if !volDoc.Spec.Accepts(volDoc.Allocated) {
		t.Errorf("volunteer allocation %v outside SLA", volDoc.Allocated)
	}
}

func TestScenario3AlternativeQoSSwitchOnControlledLoad(t *testing.T) {
	// A controlled-load session running at its best bandwidth degrades;
	// the broker switches it to the negotiated alternative (its floor) —
	// the scenario-3(b) rung.
	h := newHarness(t)
	b := h.broker
	spec := sla.NewSpec(sla.Range(resource.BandwidthMbps, 10, 45))
	spec.SourceIP, spec.DestIP = "10.10.3.4", "192.200.168.33"
	offer, err := b.RequestService(Request{
		Service: "simulation", Client: "stream", Class: sla.ClassControlledLoad,
		Spec:  spec,
		Start: t0, End: t5,
		AcceptDegradation: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	id := offer.SLA.ID
	if err := b.Accept(id); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Invoke(id); err != nil {
		t.Fatal(err)
	}
	if offer.SLA.Allocated.BandwidthMbps != 45 {
		t.Fatalf("allocated = %v, want best 45", offer.SLA.Allocated)
	}

	// Mild congestion: above the floor but below the agreed level.
	if err := h.topo.SetCongestion("site-a", "site-c", nrm.Congestion{BandwidthFactor: 0.6}); err != nil {
		t.Fatal(err)
	}
	h.netMgr.CheckAll(h.clock.Now())
	doc, _ := b.Session(id)
	if !doc.Allocated.Equal(doc.Adapt.AlternativeQoS) {
		t.Errorf("allocation = %v, want alternative %v (scenario 3b)",
			doc.Allocated, doc.Adapt.AlternativeQoS)
	}
	if doc.State != sla.StateDegraded {
		t.Errorf("state = %v, want degraded", doc.State)
	}
	// Recovery restores the original quality via scenario 2a.
	if err := h.topo.SetCongestion("site-a", "site-c", nrm.Congestion{}); err != nil {
		t.Fatal(err)
	}
	b.afterRelease()
	doc, _ = b.Session(id)
	if doc.Allocated.BandwidthMbps != 45 {
		t.Errorf("allocation after recovery = %v, want 45", doc.Allocated)
	}
}

func TestExpireDueMultiple(t *testing.T) {
	h := newHarness(t)
	b := h.broker
	var ids []sla.ID
	for i := 0; i < 3; i++ {
		req := guaranteedRequest()
		req.Spec = sla.NewSpec(sla.Exact(resource.CPU, 3))
		req.Client = "multi-" + string(rune('a'+i))
		offer, err := b.RequestService(req)
		if err != nil {
			t.Fatal(err)
		}
		if err := b.Accept(offer.SLA.ID); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, offer.SLA.ID)
	}
	h.clock.Advance(6 * time.Hour)
	due := b.ExpireDue()
	if len(due) != 3 {
		t.Fatalf("ExpireDue = %v, want 3", due)
	}
	for i := 1; i < len(due); i++ {
		if due[i-1] >= due[i] {
			t.Fatal("ExpireDue not sorted")
		}
	}
	for _, id := range ids {
		doc, _ := b.Session(id)
		if doc.State != sla.StateExpired {
			t.Errorf("%s state = %v", id, doc.State)
		}
	}
}
