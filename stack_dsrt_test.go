package gqosm

import (
	"testing"
	"time"

	"gqosm/internal/faultx"
	"gqosm/internal/resource"
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
	if stack.DSRT == nil || stack.RM == nil {
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
	stackDegrade(stack, id, resource.Nodes(6))
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

// stackDegrade reports a below-floor measurement for the session, driving
// the broker's degradation ladder.
func stackDegrade(stack *Stack, id SLAID, measured Capacity) {
	// Verify with injected failure is indirect; use NotifyFailure-style
	// path: the broker exposes handleDegradation only through Verify and
	// NRM callbacks, so emulate via the RM adapter check in Verify by
	// reporting through the NRM-free path: a direct conformance check on
	// a degraded allocator. Simplest honest route: fail capacity so the
	// measured CPU drops below floor on the next verify.
	_ = measured
	stack.Broker.NotifyFailure(Nodes(12)) // C_G_eff = 3 < session's 10
	_, _ = stack.Broker.Verify(id)
	stack.Broker.NotifyFailure(Capacity{})
}
