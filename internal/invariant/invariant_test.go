package invariant_test

import (
	"strings"
	"testing"
	"time"

	"gqosm/internal/core"
	"gqosm/internal/invariant"
	"gqosm/internal/resource"
	"gqosm/internal/sim"
	"gqosm/internal/sla"
	"gqosm/internal/stack"
)

func newCluster(t *testing.T) *sim.Cluster {
	t.Helper()
	c, err := sim.NewCluster(stack.Config{Plan: core.CapacityPlan{
		Guaranteed: resource.Capacity{CPU: 15, MemoryMB: 6144, DiskGB: 120},
		Adaptive:   resource.Capacity{CPU: 6, MemoryMB: 2048, DiskGB: 40},
		BestEffort: resource.Capacity{CPU: 5, MemoryMB: 2048, DiskGB: 40},
	}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

func establish(t *testing.T, c *sim.Cluster, client string, cpu float64) sla.ID {
	t.Helper()
	now := c.Clock.Now()
	offer, err := c.Broker.RequestService(core.Request{
		Service: "simulation",
		Client:  client,
		Class:   sla.ClassGuaranteed,
		Spec:    sla.NewSpec(sla.Exact(resource.CPU, cpu)),
		Start:   now,
		End:     now.Add(4 * time.Hour),
	})
	if err != nil {
		t.Fatalf("request: %v", err)
	}
	if err := c.Broker.Accept(offer.SLA.ID); err != nil {
		t.Fatalf("accept: %v", err)
	}
	return offer.SLA.ID
}

func rules(err error) []string {
	t, ok := err.(*invariant.Error)
	if !ok {
		return nil
	}
	out := make([]string, len(t.Violations))
	for i, v := range t.Violations {
		out[i] = v.Rule
	}
	return out
}

func hasRule(err error, rule string) bool {
	for _, r := range rules(err) {
		if r == rule {
			return true
		}
	}
	return false
}

// TestCheckHealthyLifecycle walks a full Figure-3 lifecycle and expects a
// clean bill of health at every step.
func TestCheckHealthyLifecycle(t *testing.T) {
	c := newCluster(t)
	check := func(step string) {
		t.Helper()
		if err := invariant.CheckAll(c.Broker, c.Clock.Now(), c.Pool); err != nil {
			t.Fatalf("%s: %v", step, err)
		}
	}
	check("fresh")
	id := establish(t, c, "alice", 8)
	check("established")
	if _, err := c.Broker.Invoke(id); err != nil {
		t.Fatal(err)
	}
	check("active")
	c.Broker.NotifyFailure(resource.Nodes(4))
	check("failure")
	c.Broker.NotifyFailure(resource.Capacity{})
	check("recovery")
	if err := c.Broker.Terminate(id, "done"); err != nil {
		t.Fatal(err)
	}
	check("terminated")
}

// TestCheckDetectsOrphanGrant plants a guaranteed grant with no backing
// session — the "lost capacity" shape a concurrency bug would leave.
func TestCheckDetectsOrphanGrant(t *testing.T) {
	c := newCluster(t)
	if _, err := c.Broker.Allocator().AllocateGuaranteed("ghost",
		resource.Nodes(2), resource.Nodes(2)); err != nil {
		t.Fatal(err)
	}
	err := invariant.Check(c.Broker)
	if !hasRule(err, "orphan-grant") {
		t.Fatalf("want orphan-grant, got %v", err)
	}
	if !strings.Contains(err.Error(), "ghost") {
		t.Fatalf("error does not name the orphan: %v", err)
	}
}

// TestCheckDetectsTerminalGrant re-grants capacity to a terminated session
// behind the broker's back — the double-spend shape teardown races create.
func TestCheckDetectsTerminalGrant(t *testing.T) {
	c := newCluster(t)
	id := establish(t, c, "bob", 4)
	if err := c.Broker.Terminate(id, "done"); err != nil {
		t.Fatal(err)
	}
	if err := invariant.Check(c.Broker); err != nil {
		t.Fatalf("clean teardown flagged: %v", err)
	}
	if _, err := c.Broker.Allocator().AllocateGuaranteed(string(id),
		resource.Nodes(4), resource.Nodes(4)); err != nil {
		t.Fatal(err)
	}
	if err := invariant.Check(c.Broker); !hasRule(err, "terminal-grant") {
		t.Fatalf("want terminal-grant, got %v", err)
	}
}

// TestCheckDetectsDocAllocatorSkew diverges the allocator's book from the
// SLA document.
func TestCheckDetectsDocAllocatorSkew(t *testing.T) {
	c := newCluster(t)
	now := c.Clock.Now()
	offer, err := c.Broker.RequestService(core.Request{
		Service: "simulation",
		Client:  "carol",
		Class:   sla.ClassControlledLoad,
		Spec:    sla.NewSpec(sla.Range(resource.CPU, 2, 6)),
		Start:   now,
		End:     now.Add(time.Hour),
	})
	if err != nil {
		t.Fatal(err)
	}
	id := offer.SLA.ID
	if _, err := c.Broker.Allocator().AllocateGuaranteed(string(id),
		resource.Nodes(3), resource.Nodes(2)); err != nil {
		t.Fatal(err)
	}
	if err := invariant.Check(c.Broker); !hasRule(err, "doc-allocator-skew") {
		t.Fatalf("want doc-allocator-skew, got %v", err)
	}
}

// TestCheckPool covers the mechanism rule: the pool's own admission
// control keeps it clean through the public API.
func TestCheckPool(t *testing.T) {
	c := newCluster(t)
	now := c.Clock.Now()
	if err := invariant.CheckPool(c.Pool, now); err != nil {
		t.Fatalf("fresh pool flagged: %v", err)
	}
	if _, err := c.Pool.Reserve(resource.Nodes(10), now, now.Add(time.Hour), "t"); err != nil {
		t.Fatal(err)
	}
	if err := invariant.CheckPool(c.Pool, now); err != nil {
		t.Fatalf("valid reservation flagged: %v", err)
	}
}

// TestDebugHook wires invariant.Check into the broker's debug hook and
// confirms violations surface as "invariant" events.
func TestDebugHook(t *testing.T) {
	c := newCluster(t)
	c.Broker.SetDebugHook(invariant.Check)
	id := establish(t, c, "dave", 6)
	if _, err := c.Broker.Invoke(id); err != nil {
		t.Fatal(err)
	}
	if err := c.Broker.Terminate(id, "done"); err != nil {
		t.Fatal(err)
	}
	if ev := c.Broker.DebugViolations(); len(ev) != 0 {
		t.Fatalf("healthy lifecycle logged violations: %v", ev)
	}
	// Corrupt the allocator; the next operation's hook must notice.
	if _, err := c.Broker.Allocator().AllocateGuaranteed("ghost",
		resource.Nodes(1), resource.Nodes(1)); err != nil {
		t.Fatal(err)
	}
	_ = c.Broker.BestEffortRequest("be-1", resource.Nodes(1))
	ev := c.Broker.DebugViolations()
	if len(ev) == 0 {
		t.Fatal("corruption not reported by debug hook")
	}
	if !strings.Contains(ev[0].Msg, "orphan-grant") {
		t.Fatalf("unexpected violation event: %v", ev[0])
	}
}
