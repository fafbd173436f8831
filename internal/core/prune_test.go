package core

import (
	"errors"
	"testing"
	"time"

	"gqosm/internal/sla"
)

// PruneTerminal is the soak harness's working-set bound: terminal
// sessions leave the shard maps, the routing table and the repository,
// while live sessions — and the capacity they hold — are untouched.
func TestPruneTerminal(t *testing.T) {
	h := newHarness(t)
	b := h.broker

	// One live session.
	live, err := b.RequestService(controlledRequest("tenant-live"))
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Accept(live.SLA.ID); err != nil {
		t.Fatal(err)
	}

	// One terminated session and one expired offer.
	done, err := b.RequestService(controlledRequest("tenant-done"))
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Accept(done.SLA.ID); err != nil {
		t.Fatal(err)
	}
	if err := b.Terminate(done.SLA.ID, "finished"); err != nil {
		t.Fatal(err)
	}
	stale, err := b.RequestService(controlledRequest("tenant-stale"))
	if err != nil {
		t.Fatal(err)
	}
	h.clock.Advance(3 * time.Minute) // past the confirm window
	b.ExpireDue()

	if got := b.PruneTerminal(); got != 2 {
		t.Fatalf("PruneTerminal = %d, want 2", got)
	}
	if got := b.PruneTerminal(); got != 0 {
		t.Fatalf("second PruneTerminal = %d, want 0", got)
	}

	// Pruned IDs are gone everywhere.
	for _, id := range []sla.ID{done.SLA.ID, stale.SLA.ID} {
		if _, err := b.Session(id); !errors.Is(err, ErrUnknownSession) {
			t.Errorf("Session(%s) after prune: %v, want ErrUnknownSession", id, err)
		}
	}

	// The live session is untouched: queryable, still holding its grant.
	doc, err := b.Session(live.SLA.ID)
	if err != nil || doc.State != sla.StateEstablished {
		t.Fatalf("live session after prune: %v, %v", doc, err)
	}
	if err := b.Terminate(live.SLA.ID, "done"); err != nil {
		t.Fatalf("Terminate after prune: %v", err)
	}
}

func TestSessionInfosCarryProposedAt(t *testing.T) {
	h := newHarness(t)
	offer, err := h.broker.RequestService(controlledRequest("tenant-a"))
	if err != nil {
		t.Fatal(err)
	}
	infos := h.broker.SessionInfos()
	if len(infos) != 1 {
		t.Fatalf("SessionInfos = %d entries", len(infos))
	}
	if !infos[0].ProposedAt.Equal(t0) {
		t.Errorf("ProposedAt = %v, want %v", infos[0].ProposedAt, t0)
	}
	_ = offer
}
