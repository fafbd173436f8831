package core

// The Clearing step (Fig. 3): every way a session ends runs teardownIf,
// and every reservation return runs giveBack.

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"gqosm/internal/faultx"
	"gqosm/internal/gara"
	"gqosm/internal/gram"
	"gqosm/internal/obs"
	"gqosm/internal/resource"
	"gqosm/internal/sla"
	"gqosm/internal/wal"
)

// clearingSession admits a guaranteed session willing to be terminated
// (the scenario-1 ladder needs one); live accepts it and invoke launches
// its job. It returns the session, its reservation and its job.
func clearingSession(t *testing.T, b *Broker, live, invoke bool) (sla.ID, gara.Handle, gram.JobID) {
	t.Helper()
	req := guaranteedRequest()
	req.AcceptTermination = true
	offer, err := b.RequestService(req)
	if err != nil {
		t.Fatal(err)
	}
	id := offer.SLA.ID
	var job gram.JobID
	if live {
		if err := b.Accept(id); err != nil {
			t.Fatal(err)
		}
	}
	if invoke {
		j, err := b.Invoke(id)
		if err != nil {
			t.Fatal(err)
		}
		job = j.ID
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return id, b.sessions[id].handle, job
}

// TestClearingMatrix ends a session every way one can end and checks the
// one Clearing step ran: no guaranteed grant left, the reservation
// canceled, no job running, no timer pending, and only the end's own
// lifecycle counter moved. An offer cannot have a job, so Reject and the
// confirm-window lapse run on offers only.
func TestClearingMatrix(t *testing.T) {
	rows := []struct {
		name    string
		live    bool // ends an established session (else an offer)
		counter string
		end     func(h *harness, id sla.ID) error
	}{
		{"terminate", true, "terminate", func(h *harness, id sla.ID) error {
			return h.broker.Terminate(id, "service completed")
		}},
		{"expire", true, "expire", func(h *harness, id sla.ID) error {
			return h.broker.Expire(id)
		}},
		{"reject", false, "reject", func(h *harness, id sla.ID) error {
			return h.broker.Reject(id)
		}},
		{"confirm-lapse", false, "expire", func(h *harness, id sla.ID) error {
			h.clock.Advance(3 * time.Minute)
			if doc, _ := h.broker.Session(id); doc.State != sla.StateTerminated {
				return fmt.Errorf("state after the confirm window = %v", doc.State)
			}
			return nil
		}},
		{"scenario-1", true, "terminate", func(h *harness, id sla.ID) error {
			needed := resource.Capacity{CPU: h.broker.alloc.AvailableGuaranteed().CPU + 1}
			_, err := h.broker.compensate(needed)
			return err
		}},
		{"handoff", true, "handoff_done", func(h *harness, id sla.ID) error {
			if _, err := h.broker.BeginHandoff(id, "site-b"); err != nil {
				return err
			}
			return h.broker.CompleteHandoff(id)
		}},
	}
	for _, row := range rows {
		for _, invoke := range []bool{false, true} {
			if invoke && !row.live {
				continue
			}
			t.Run(fmt.Sprintf("%s/invoked=%v", row.name, invoke), func(t *testing.T) {
				h := newHarness(t)
				b := h.broker
				id, handle, job := clearingSession(t, b, row.live, invoke)
				ends := map[string]*obs.Counter{
					"terminate": b.met.terminated, "expire": b.met.expired,
					"reject": b.met.rejected, "handoff_done": b.met.handoffsDone,
				}
				before := map[string]int64{}
				for name, c := range ends {
					before[name] = c.Value()
				}

				if err := row.end(h, id); err != nil {
					t.Fatal(err)
				}
				if users := b.alloc.GuaranteedUsers(); len(users) != 0 {
					t.Errorf("guaranteed grants left: %v", users)
				}
				if r, err := h.g.Get(handle); err != nil || r.Status != gara.StatusCanceled {
					t.Errorf("reservation %s = %v (%v), want canceled", handle, r.Status, err)
				}
				if job != "" {
					if j, err := h.gramM.Job(job); err != nil || !j.State.Terminal() {
						t.Errorf("job %s is %v (%v), want it ended", job, j.State, err)
					}
				}
				if n := h.clock.PendingTimers(); n != 0 {
					t.Errorf("PendingTimers = %d, want 0", n)
				}
				for name, c := range ends {
					want := before[name]
					if name == row.counter {
						want++
					}
					if got := c.Value(); got != want {
						t.Errorf("%s counter = %d, want %d", name, got, want)
					}
				}
			})
		}
	}
}

// TestTerminateCancelsJobAfterTransition: the job is canceled after the
// terminal transition, so a teardown racing it has already lost when the
// job dies — only the teardown that ended the session cancels its job.
func TestTerminateCancelsJobAfterTransition(t *testing.T) {
	h := newHarness(t)
	b := h.broker
	id, _, job := clearingSession(t, b, true, true)
	var stateAtCancel sla.State
	var racer error
	h.gramM.Subscribe(func(j gram.Job) {
		if j.ID != job || j.State != gram.StateCanceled {
			return
		}
		doc, _ := b.Session(id)
		stateAtCancel = doc.State
		racer = b.Expire(id)
	})
	if err := b.Terminate(id, "service completed"); err != nil {
		t.Fatalf("Terminate: %v", err)
	}
	if stateAtCancel != sla.StateTerminated {
		t.Errorf("session was %v when its job was canceled, want terminated", stateAtCancel)
	}
	if !errors.Is(racer, ErrBadState) {
		t.Errorf("racing Expire = %v, want ErrBadState", racer)
	}
}

// TestTeardownQuietOnCanceledReservation: a reservation the RM already
// canceled is given back, so teardown logs no failed cancel for it.
func TestTeardownQuietOnCanceledReservation(t *testing.T) {
	h := newHarness(t)
	b := h.broker
	id, handle, _ := clearingSession(t, b, true, false)
	if err := h.g.Cancel(handle); err != nil {
		t.Fatal(err)
	}
	if err := b.Terminate(id, "service completed"); err != nil {
		t.Fatal(err)
	}
	for _, e := range b.Events() {
		if e.SLA == id && strings.Contains(e.Msg, "reservation cancel") {
			t.Errorf("teardown logged %q", e.Msg)
		}
	}
	if n := b.PendingCancels(); n != 0 {
		t.Errorf("PendingCancels = %d, want 0", n)
	}
}

// walOps crashes the broker and counts the journaled records of op.
func walOps(t *testing.T, h *durableHarness, op string) int {
	t.Helper()
	h.broker.Crash()
	log, load, err := wal.Open(wal.Options{Dir: h.cfg.Durability.Dir})
	if err != nil {
		t.Fatal(err)
	}
	defer log.Seal()
	n := 0
	for _, r := range load.Records {
		if r.Op == op {
			n++
		}
	}
	return n
}

// TestGiveBack is the table of giveBack's outcomes under gara.cancel
// (two attempts per call): a returned reservation is nil, an exhausted
// budget parks the handle once, any other error is returned unparked.
func TestGiveBack(t *testing.T) {
	rows := []struct {
		name      string
		arrange   func(t *testing.T, h *durableHarness, handle gara.Handle)
		unavail   bool // ErrRMUnavailable, handle parked
		otherErr  bool // another error, returned as it stands
		cancelled bool // the reservation ends up canceled at the RM
	}{
		{name: "success", cancelled: true},
		{name: "already canceled", cancelled: true, arrange: func(_ *testing.T, h *durableHarness, _ gara.Handle) {
			// Every attempt commits and loses its reply: the retry finds
			// the reservation canceled by the first.
			h.inj.SetPlan("gara.cancel", faultx.Plan{Rate: 1, Kinds: []faultx.Kind{faultx.KindPartial}})
		}},
		{name: "budget exhausted", unavail: true, arrange: func(_ *testing.T, h *durableHarness, _ gara.Handle) {
			h.inj.SetPlan("gara.cancel", faultx.Plan{Rate: 1, Kinds: []faultx.Kind{faultx.KindError}})
		}},
		{name: "other error", otherErr: true, cancelled: true, arrange: func(t *testing.T, h *durableHarness, handle gara.Handle) {
			// The compute part vanished behind GARA's back: its manager
			// refuses the cancel, a definitive answer.
			r, err := h.g.Get(handle)
			if err != nil {
				t.Fatal(err)
			}
			token, _ := r.Token(gara.TypeCompute)
			if err := h.pool.Release(resource.ReservationID(token)); err != nil {
				t.Fatal(err)
			}
		}},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			h := newDurableHarness(t, 0)
			b := h.broker
			id, handle, _ := clearingSession(t, b, true, false)
			if row.arrange != nil {
				row.arrange(t, h, handle)
			}
			err := b.giveBack(id, handle)
			switch {
			case row.unavail:
				if !errors.Is(err, ErrRMUnavailable) {
					t.Fatalf("giveBack = %v, want ErrRMUnavailable", err)
				}
			case row.otherErr:
				if err == nil || errors.Is(err, ErrRMUnavailable) {
					t.Fatalf("giveBack = %v, want the RM's own error", err)
				}
			case err != nil:
				t.Fatalf("giveBack = %v, want nil", err)
			}
			wantParked := 0
			if row.unavail {
				wantParked = 1
				// A sweep while the RM is still down keeps the handle
				// parked without journaling it again.
				if n := b.ReconcileReservations(); n != 0 {
					t.Errorf("sweep against a down RM cleared %d", n)
				}
			}
			if n := b.PendingCancels(); n != wantParked {
				t.Errorf("PendingCancels = %d, want %d", n, wantParked)
			}
			if r, _ := h.g.Get(handle); (r.Status == gara.StatusCanceled) != row.cancelled {
				t.Errorf("reservation status %v, want canceled %v", r.Status, row.cancelled)
			}
			if n := walOps(t, h, "park"); n != wantParked {
				t.Errorf("%d park record(s), want %d", n, wantParked)
			}
		})
	}
}
