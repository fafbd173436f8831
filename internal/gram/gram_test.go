package gram

import (
	"errors"
	"sync"
	"testing"
	"time"

	"gqosm/internal/clockx"
)

var t0 = time.Date(2003, 6, 16, 9, 0, 0, 0, time.UTC)

func TestSubmitAssignsPIDAndActivates(t *testing.T) {
	clock := clockx.NewManual(t0)
	m := NewManager(clock)
	defer m.Close()

	job, err := m.Submit(`&(executable="/bin/sim")(count=10)`, "site-a-sla-0001")
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if job.Label != "site-a-sla-0001" {
		t.Errorf("label = %q, want the submitter's tag", job.Label)
	}
	if got, _ := m.Job(job.ID); got.Label != job.Label {
		t.Errorf("Job(%s).Label = %q, want %q", job.ID, got.Label, job.Label)
	}
	if job.State != StateActive {
		t.Errorf("state = %v", job.State)
	}
	if job.PID == 0 {
		t.Error("no PID assigned")
	}
	job2, err := m.Submit(`&(executable="/bin/other")`, "")
	if err != nil {
		t.Fatal(err)
	}
	if job2.PID == job.PID {
		t.Error("PIDs not unique")
	}
}

func TestSubmitValidation(t *testing.T) {
	m := NewManager(clockx.NewManual(t0))
	defer m.Close()
	if _, err := m.Submit("&(count=", ""); err == nil {
		t.Error("bad RSL accepted")
	}
	if _, err := m.Submit(`&(count=10)`, ""); err == nil {
		t.Error("missing executable accepted")
	}
}

func TestDurationDrivenCompletion(t *testing.T) {
	clock := clockx.NewManual(t0)
	m := NewManager(clock)
	defer m.Close()

	job, err := m.Submit(`&(executable="/bin/sim")(duration=3600)`, "")
	if err != nil {
		t.Fatal(err)
	}
	clock.Advance(59 * time.Minute)
	got, _ := m.Job(job.ID)
	if got.State != StateActive {
		t.Fatalf("state before deadline = %v", got.State)
	}
	clock.Advance(2 * time.Minute)
	got, _ = m.Job(job.ID)
	if got.State != StateDone {
		t.Fatalf("state after deadline = %v", got.State)
	}
}

func TestCancelStopsTimer(t *testing.T) {
	clock := clockx.NewManual(t0)
	m := NewManager(clock)
	defer m.Close()

	job, err := m.Submit(`&(executable="/bin/sim")(duration=60)`, "")
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Cancel(job.ID); err != nil {
		t.Fatalf("Cancel: %v", err)
	}
	clock.Advance(2 * time.Minute)
	got, _ := m.Job(job.ID)
	if got.State != StateCanceled {
		t.Fatalf("state = %v, want canceled (timer must not overwrite)", got.State)
	}
	if err := m.Cancel(job.ID); !errors.Is(err, ErrTerminal) {
		t.Errorf("double Cancel err = %v", err)
	}
	if clock.PendingTimers() != 0 {
		t.Errorf("PendingTimers = %d, want 0", clock.PendingTimers())
	}
}

func TestFailAndComplete(t *testing.T) {
	m := NewManager(clockx.NewManual(t0))
	defer m.Close()

	j1, _ := m.Submit(`&(executable="/bin/a")`, "")
	j2, _ := m.Submit(`&(executable="/bin/b")`, "")
	if err := m.Fail(j1.ID); err != nil {
		t.Fatal(err)
	}
	got, _ := m.Job(j1.ID)
	if got.State != StateFailed {
		t.Errorf("failed job = %+v", got)
	}
	if err := m.Complete(j2.ID); err != nil {
		t.Fatal(err)
	}
	got, _ = m.Job(j2.ID)
	if got.State != StateDone {
		t.Errorf("state = %v", got.State)
	}
	if err := m.Complete("ghost"); !errors.Is(err, ErrUnknownJob) {
		t.Errorf("unknown job err = %v", err)
	}
	if _, err := m.Job("ghost"); !errors.Is(err, ErrUnknownJob) {
		t.Errorf("Job unknown err = %v", err)
	}
}

func TestSubscribeObservesTransitions(t *testing.T) {
	m := NewManager(clockx.NewManual(t0))
	defer m.Close()
	var (
		mu     sync.Mutex
		states []State
	)
	m.Subscribe(func(j Job) {
		mu.Lock()
		defer mu.Unlock()
		states = append(states, j.State)
	})
	job, _ := m.Submit(`&(executable="/bin/a")`, "")
	if err := m.Complete(job.ID); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(states) != 2 || states[0] != StateActive || states[1] != StateDone {
		t.Fatalf("observed states = %v", states)
	}
}

func TestCloseCancelsRunning(t *testing.T) {
	clock := clockx.NewManual(t0)
	m := NewManager(clock)
	j1, _ := m.Submit(`&(executable="/bin/a")(duration=60)`, "")
	j2, _ := m.Submit(`&(executable="/bin/b")`, "")
	if err := m.Complete(j2.ID); err != nil {
		t.Fatal(err)
	}
	m.Close()
	got, _ := m.Job(j1.ID)
	if got.State != StateCanceled {
		t.Errorf("running job after Close = %v", got.State)
	}
	got, _ = m.Job(j2.ID)
	if got.State != StateDone {
		t.Errorf("done job after Close = %v", got.State)
	}
	if _, err := m.Submit(`&(executable="/bin/c")`, ""); err == nil {
		t.Error("Submit after Close accepted")
	}
	m.Close() // idempotent
}

func TestStateStrings(t *testing.T) {
	states := []State{StatePending, StateActive, StateDone, StateFailed, StateCanceled}
	names := []string{"pending", "active", "done", "failed", "canceled"}
	for i, s := range states {
		if s.String() != names[i] {
			t.Errorf("state %d = %q, want %q", i, s.String(), names[i])
		}
	}
	if State(99).String() != "state(99)" {
		t.Error("unknown state String")
	}
	if StatePending.Terminal() || StateActive.Terminal() {
		t.Error("non-terminal reported terminal")
	}
	for _, s := range []State{StateDone, StateFailed, StateCanceled} {
		if !s.Terminal() {
			t.Errorf("%v not terminal", s)
		}
	}
}

func TestPruneTerminalJobs(t *testing.T) {
	clock := clockx.NewManual(time.Date(2003, 6, 16, 9, 0, 0, 0, time.UTC))
	m := NewManager(clock)
	defer m.Close()

	keep, err := m.Submit(`&(executable="sim")`, "")
	if err != nil {
		t.Fatal(err)
	}
	done, err := m.Submit(`&(executable="sim")(duration=60)`, "")
	if err != nil {
		t.Fatal(err)
	}
	clock.Advance(2 * time.Minute) // completes the timed job

	if got := m.PruneTerminal(); got != 1 {
		t.Fatalf("PruneTerminal = %d, want 1", got)
	}
	if _, err := m.Job(done.ID); !errors.Is(err, ErrUnknownJob) {
		t.Errorf("Job(pruned) = %v, want ErrUnknownJob", err)
	}
	if j, err := m.Job(keep.ID); err != nil || j.State != StateActive {
		t.Errorf("running job disturbed: %v, %v", j, err)
	}
}
