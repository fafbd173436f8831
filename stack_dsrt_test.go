package gqosm

import (
	"testing"
	"time"

	"gqosm/internal/faultx"
	"gqosm/internal/nrm"
	"gqosm/internal/sla"
)

func TestStackWithDSRT(t *testing.T) {
	clock := NewManualClock(epoch)
	stack, err := NewStack(StackConfig{
		Clock: clock,
		Plan: CapacityPlan{
			Guaranteed: Capacity{CPU: 15, MemoryMB: 6144},
			Adaptive:   Capacity{CPU: 6, MemoryMB: 2048},
			BestEffort: Capacity{CPU: 5, MemoryMB: 2048},
		},
		ConfirmWindow:  time.Hour,
		DSRTProcessors: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer stack.Close()
	if stack.DSRT == nil {
		t.Fatal("DSRT not assembled")
	}

	offer, err := stack.Broker.RequestService(Request{
		Service: "simulation", Client: "c", Class: ClassGuaranteed,
		Spec:  NewSpec(Exact(CPU, 10)),
		Start: epoch, End: epoch.Add(5 * time.Hour),
	})
	if err != nil {
		t.Fatal(err)
	}
	id := offer.SLA.ID
	if err := stack.Broker.Accept(id); err != nil {
		t.Fatal(err)
	}
	// Before invocation: no DSRT contracts.
	if got := stack.DSRT.Reserved(); got != 0 {
		t.Fatalf("Reserved before invoke = %g", got)
	}
	if _, err := stack.Broker.Invoke(id); err != nil {
		t.Fatal(err)
	}
	// The launched process runs under a DSRT contract.
	if got := stack.DSRT.Reserved(); got <= 0 {
		t.Fatalf("Reserved after invoke = %g, want > 0", got)
	}
	reservedBefore := stack.DSRT.Reserved()

	// A CPU degradation is rectified at the RM level: the share grows
	// and no violation is recorded.
	stack.Broker.Allocator() // touch
	rep, err := stack.Broker.Verify(id)
	if err != nil || !rep.Conforms {
		t.Fatalf("healthy verify: %+v %v", rep, err)
	}
	// Simulate a monitor-detected CPU shortfall.
	stackDegrade(stack, id)
	if got := stack.Broker.Violations(id); got != 0 {
		t.Errorf("violations = %d, want 0 (RM level should rectify)", got)
	}
	if got := stack.DSRT.Reserved(); got <= reservedBefore {
		t.Errorf("DSRT share did not grow: %g -> %g", reservedBefore, got)
	}

	// Termination releases the DSRT contract.
	if err := stack.Broker.Terminate(id, "done"); err != nil {
		t.Fatal(err)
	}
	if got := stack.DSRT.Reserved(); got != 0 {
		t.Errorf("Reserved after terminate = %g, want 0", got)
	}
}

// TestStackArmsDSRTFaultSite: StackConfig.Faults reaches the DSRT
// scheduler too, so a plan on "dsrt.register" fires when an invoked
// session's process asks for its contract. The launch survives a refused
// contract: the session runs without RM-level adaptation.
func TestStackArmsDSRTFaultSite(t *testing.T) {
	inj := NewFaultInjector(1, nil)
	inj.SetPlan("dsrt.register", FaultPlan{Rate: 1, Kinds: []faultx.Kind{FaultError}})
	stack, err := NewStack(StackConfig{
		Clock:          NewManualClock(epoch),
		Plan:           CapacityPlan{Guaranteed: Nodes(15), Adaptive: Nodes(6), BestEffort: Nodes(5)},
		ConfirmWindow:  time.Hour,
		DSRTProcessors: 4,
		Faults:         inj,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer stack.Close()
	offer, err := stack.Broker.RequestService(Request{
		Service: "simulation", Client: "c", Class: ClassGuaranteed,
		Spec:  NewSpec(Exact(CPU, 10)),
		Start: epoch, End: epoch.Add(5 * time.Hour),
	})
	if err != nil {
		t.Fatal(err)
	}
	id := offer.SLA.ID
	if err := stack.Broker.Accept(id); err != nil {
		t.Fatal(err)
	}
	if _, err := stack.Broker.Invoke(id); err != nil {
		t.Fatal(err)
	}
	if got := inj.Total(); got != 1 {
		t.Errorf("injector counted %d fault(s) after Invoke, want 1 at dsrt.register", got)
	}
	if got := stack.DSRT.Reserved(); got != 0 {
		t.Errorf("DSRT share = %g after a refused contract, want 0", got)
	}
	doc, err := stack.Broker.Session(id)
	if err != nil {
		t.Fatal(err)
	}
	if doc.State != sla.StateActive {
		t.Errorf("session state = %v, want active", doc.State)
	}
}

// TestStackDSRTCongestedCompositeAdapts: with DSRT on, a congested link
// still drives a composite {CPU, bandwidth} session down the AQoS ladder.
// The NRM's notification measures only the bandwidth, so the RM-level
// rung must not read the unmeasured CPU as a deficit, boost the session's
// share and call the degradation rectified.
func TestStackDSRTCongestedCompositeAdapts(t *testing.T) {
	topo := NewTopology()
	for _, err := range []error{
		topo.AddDomain("site-a", "192.200.168.0/24"),
		topo.AddDomain("site-c", "10.10.0.0/16"),
		topo.AddLink("site-a", "site-c", 100),
	} {
		if err != nil {
			t.Fatal(err)
		}
	}
	clock := NewManualClock(epoch)
	stack, err := NewStack(StackConfig{
		Domain: "site-a",
		Clock:  clock,
		Plan: CapacityPlan{
			Guaranteed: Capacity{CPU: 15, BandwidthMbps: 70},
			Adaptive:   Capacity{CPU: 6, BandwidthMbps: 20},
			BestEffort: Capacity{CPU: 5, BandwidthMbps: 10},
		},
		Topology:       topo,
		ConfirmWindow:  time.Hour,
		DSRTProcessors: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer stack.Close()

	spec := NewSpec(Exact(CPU, 4), Exact(BandwidthMbps, 45))
	spec.SourceIP, spec.DestIP = "10.10.3.4", "192.200.168.33"
	offer, err := stack.Broker.RequestService(Request{
		Service: "simulation", Client: "viz-stream", Class: ClassGuaranteed,
		Spec: spec, Start: epoch, End: epoch.Add(5 * time.Hour), AcceptDegradation: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	id := offer.SLA.ID
	if err := stack.Broker.Accept(id); err != nil {
		t.Fatal(err)
	}
	if _, err := stack.Broker.Invoke(id); err != nil {
		t.Fatal(err)
	}
	reserved := stack.DSRT.Reserved()
	if reserved <= 0 {
		t.Fatalf("Reserved after invoke = %g, want a DSRT contract", reserved)
	}

	if err := topo.SetCongestion("site-a", "site-c", nrm.Congestion{BandwidthFactor: 0.4}); err != nil {
		t.Fatal(err)
	}
	clock.Advance(30 * time.Minute)
	if degraded := stack.NRM.CheckAll(clock.Now()); len(degraded) != 1 {
		t.Fatalf("NRM check found %d degraded flow(s), want 1", len(degraded))
	}

	doc, err := stack.Broker.Session(id)
	if err != nil {
		t.Fatal(err)
	}
	if stack.Broker.Violations(id) == 0 && doc.Allocated.Equal(offer.SLA.Allocated) {
		t.Errorf("congested session neither counted violated nor moved to its alternative QoS: state %v, allocated %v",
			doc.State, doc.Allocated)
	}
	if got := stack.DSRT.Reserved(); got != reserved {
		t.Errorf("DSRT share moved %g -> %g on a network degradation", reserved, got)
	}
}

// stackDegrade fails 12 nodes (C_G_eff 3, below the session's 10), has
// the broker verify the session against that shortfall, and recovers the
// nodes, driving the broker's degradation ladder.
func stackDegrade(stack *Stack, id SLAID) {
	stack.Broker.NotifyFailure(Nodes(12))
	_, _ = stack.Broker.Verify(id)
	stack.Broker.NotifyFailure(Capacity{})
}
