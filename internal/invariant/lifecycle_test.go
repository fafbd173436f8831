package invariant_test

import (
	"testing"
	"time"

	"gqosm/internal/core"
	"gqosm/internal/invariant"
	"gqosm/internal/resource"
	"gqosm/internal/sla"
)

func propose(t *testing.T, b *core.Broker, client string, start time.Time) sla.ID {
	t.Helper()
	offer, err := b.RequestService(core.Request{
		Service: "simulation",
		Client:  client,
		Class:   sla.ClassGuaranteed,
		Spec:    sla.NewSpec(sla.Exact(resource.CPU, 2)),
		Start:   start,
		End:     start.Add(4 * time.Hour),
	})
	if err != nil {
		t.Fatalf("request: %v", err)
	}
	return offer.SLA.ID
}

func TestCheckLifecycleStaleProposal(t *testing.T) {
	c := newCluster(t)
	const window = 2 * time.Minute
	now := c.Clock.Now()
	propose(t, c.Broker, "tenant-a", now)

	// Within the window: clean.
	if err := invariant.CheckLifecycle(c.Broker, now.Add(time.Minute), window); err != nil {
		t.Fatalf("fresh proposal flagged: %v", err)
	}
	// An oracle reading past the window while the session still sits in
	// Proposed (the confirm timer evidently never fired) is the bug the
	// rule exists for. The clock has not advanced, so the timer is
	// still pending — exactly the broken-timer state, simulated.
	err := invariant.CheckLifecycle(c.Broker, now.Add(3*time.Minute), window)
	if !hasRule(err, "stale-proposal") {
		t.Fatalf("stale proposal not flagged: %v", err)
	}

	// The healthy path: advancing the clock fires the confirm timer,
	// the offer expires, and the rule stays quiet at any reading.
	c.Clock.Advance(10 * time.Minute)
	if err := invariant.CheckLifecycle(c.Broker, c.Clock.Now(), window); err != nil {
		t.Fatalf("expired offer flagged: %v", err)
	}
}

func TestCheckLifecycleOverstaySession(t *testing.T) {
	c := newCluster(t)
	const window = 2 * time.Minute
	id := establish(t, c, "tenant-a", 2) // End = now + 4h

	if err := invariant.CheckLifecycle(c.Broker, c.Clock.Now().Add(time.Hour), window); err != nil {
		t.Fatalf("mid-lease session flagged: %v", err)
	}
	// Past End without an ExpireDue sweep: overstay.
	late := c.Clock.Now().Add(5 * time.Hour)
	err := invariant.CheckLifecycle(c.Broker, late, window)
	if !hasRule(err, "overstay-session") {
		t.Fatalf("overstaying session not flagged: %v", err)
	}

	// The driver's contract: advance, sweep, then check — clean.
	c.Clock.Advance(5 * time.Hour)
	c.Broker.ExpireDue()
	if err := invariant.CheckLifecycle(c.Broker, c.Clock.Now(), window); err != nil {
		t.Fatalf("after ExpireDue: %v", err)
	}
	if doc, err2 := c.Broker.Session(id); err2 != nil || !doc.State.Terminal() {
		t.Fatalf("session not expired: %v, %v", doc, err2)
	}
}
