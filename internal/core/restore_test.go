package core

import (
	"testing"
	"time"

	"gqosm/internal/resource"
	"gqosm/internal/sla"
)

// compensationVictim fills C_G with two controlled-load sessions at
// their best (6 of [2,6] CPU each), then admits a guaranteed request for
// need CPU, which scenario 1 pays for by degrading the first to its
// floor. It returns the victim and the other session.
func compensationVictim(t *testing.T, b *Broker, need float64) (victim, other sla.ID) {
	t.Helper()
	var ids []sla.ID
	for _, c := range []string{"c1", "c2"} {
		req := controlledRequest(c)
		req.Spec = sla.NewSpec(sla.Range(resource.CPU, 2, 6))
		offer, err := b.RequestService(req)
		if err != nil {
			t.Fatal(err)
		}
		if err := b.Accept(offer.SLA.ID); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, offer.SLA.ID)
	}
	req := guaranteedRequest()
	req.Spec = sla.NewSpec(sla.Exact(resource.CPU, need))
	offer, err := b.RequestService(req)
	if err != nil {
		t.Fatalf("compensated request: %v", err)
	}
	if err := b.Accept(offer.SLA.ID); err != nil {
		t.Fatal(err)
	}
	requireDegraded(t, b, ids[0], true)
	requireDegraded(t, b, ids[1], false)
	return ids[0], ids[1]
}

// requireDegraded checks id's degraded flag, and that a restored session
// holds its best quality again.
func requireDegraded(t *testing.T, b *Broker, id sla.ID, want bool) {
	t.Helper()
	var info SessionInfo
	for _, si := range b.SessionInfos() {
		if si.ID == id {
			info = si
		}
	}
	doc, err := b.Session(id)
	if err != nil {
		t.Fatal(err)
	}
	if info.Degraded != want {
		t.Fatalf("%s degraded = %v, want %v (holds %v)", id, info.Degraded, want, doc.Allocated)
	}
	if !want && !doc.Allocated.Equal(doc.Spec.Best()) {
		t.Fatalf("%s holds %v, want its best %v", id, doc.Allocated, doc.Spec.Best())
	}
}

// TestRecoveryRestoresCompensationVictim: a session degraded to admit a
// request while capacity was offline is restored by the recovery
// notice itself, NotifyFailure with zero capacity, with no release.
func TestRecoveryRestoresCompensationVictim(t *testing.T) {
	b := newHarness(t).broker
	// Nine failed CPUs leave C_G_eff + C_A = 12: the two sessions fill it.
	b.NotifyFailure(resource.Nodes(9))
	victim, _ := compensationVictim(t, b, 3)
	b.NotifyFailure(resource.Capacity{})
	requireDegraded(t, b, victim, false)
}

// TestTickRestoresAfterRelease: a renegotiation down frees capacity
// without running scenario 2; the next monitor tick restores the
// session compensation degraded.
func TestTickRestoresAfterRelease(t *testing.T) {
	h := newHarness(t)
	b := h.broker
	victim, other := compensationVictim(t, b, 7)
	if _, err := b.Renegotiate(other, sla.NewSpec(sla.Range(resource.CPU, 2, 2))); err != nil {
		t.Fatal(err)
	}
	requireDegraded(t, b, victim, true)
	m := NewMonitor(b, time.Minute)
	m.Start()
	defer m.Stop()
	h.clock.Advance(time.Minute)
	requireDegraded(t, b, victim, false)
}

// TestRefusedRestoreWaitsForFreedCapacity: a restore the allocator
// refused is not tried again until a release, a shrink or a failure
// change moves the allocator's frees count.
func TestRefusedRestoreWaitsForFreedCapacity(t *testing.T) {
	b := newHarness(t).broker
	if err := b.BestEffortRequest("be", resource.Nodes(1)); err != nil {
		t.Fatal(err)
	}
	victim, _ := compensationVictim(t, b, 7) // C_G is full again
	attempts := func() int64 { return b.met.restoreAttempts.Value() }

	b.restoreDegraded()
	first := attempts()
	if first == 0 {
		t.Fatal("the first pass did not try the degraded session")
	}
	requireDegraded(t, b, victim, true)
	b.restoreDegraded()
	b.restoreDegraded()
	if got := attempts(); got != first {
		t.Errorf("attempts %d -> %d with nothing freed in between", first, got)
	}
	// A best-effort release frees nothing C_G can use, but it is a
	// release: its own scenario-2 pass tries once more.
	if err := b.BestEffortRelease("be"); err != nil {
		t.Fatal(err)
	}
	if got := attempts(); got != first+1 {
		t.Errorf("attempts %d after a release, want %d", got, first+1)
	}
	requireDegraded(t, b, victim, true)
	b.restoreDegraded()
	if got := attempts(); got != first+1 {
		t.Errorf("attempts %d after another idle pass, want %d", got, first+1)
	}
	// Failed capacity changing is a frees move too.
	b.NotifyFailure(resource.Nodes(1))
	b.restoreDegraded()
	if got := attempts(); got != first+2 {
		t.Errorf("attempts %d after a failure change, want %d", got, first+2)
	}
}
