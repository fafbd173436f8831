// Package gram is a from-scratch stand-in for the Globus Resource
// Allocation Manager (GRAM) the paper uses to "manage service execution"
// (§2.1). Jobs are submitted with an RSL description, move through the
// classic GRAM state machine (pending → active → done/failed, with
// cancellation), and expose the launched process ID that the Grid service
// uses to claim its GARA reservation via the bind call (§3.1: "in the case
// of computational resources, the process ID of the launched process is
// the only parameter required").
//
// Execution is simulated against an injected clock: a job with a
// `duration` RSL attribute (seconds) completes that long after it starts.
package gram

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"sync"
	"time"

	"gqosm/internal/obs"

	"gqosm/internal/clockx"
	"gqosm/internal/faultx"
	"gqosm/internal/rsl"
)

// State is a GRAM job state.
type State int

// Job states, following the GRAM protocol's lifecycle.
const (
	StatePending State = iota + 1
	StateActive
	StateDone
	StateFailed
	StateCanceled
)

// String returns the state name.
func (s State) String() string {
	switch s {
	case StatePending:
		return "pending"
	case StateActive:
		return "active"
	case StateDone:
		return "done"
	case StateFailed:
		return "failed"
	case StateCanceled:
		return "canceled"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// Terminal reports whether the job has finished.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled
}

// JobID identifies a submitted job.
type JobID string

// Job is a snapshot of one job's status.
type Job struct {
	ID    JobID
	Label string // the submitter's tag (the broker's SLA ID)
	PID   int    // process ID once active
	State State
}

// Manager errors.
var (
	// ErrUnknownJob is returned for operations on unknown job IDs.
	ErrUnknownJob = errors.New("gram: unknown job")
	// ErrTerminal is returned when signalling a finished job.
	ErrTerminal = errors.New("gram: job already terminal")
)

// StateFunc observes job state changes.
type StateFunc func(Job)

// Manager runs jobs. It is safe for concurrent use. Close stops all
// internal timers; running jobs are marked canceled.
type Manager struct {
	clock clockx.Clock

	mu      sync.Mutex
	nextID  int
	nextPID int
	jobs    map[JobID]*jobState
	subs    []StateFunc
	closed  bool

	// met holds nil-safe job-state counters; zero until Instrument is
	// called.
	met gramMetrics

	// faults injects submission failures; nil injects nothing. Set at
	// assembly time, before the manager accepts jobs.
	faults *faultx.Injector
}

// InjectFaults installs a fault injector on job submission (site
// "gram.submit"). Call at assembly time.
func (m *Manager) InjectFaults(inj *faultx.Injector) { m.faults = inj }

type gramMetrics struct {
	submitted, submitErrors *obs.Counter
	done, failed, canceled  *obs.Counter
}

// Instrument registers job-state metrics on reg. Call once at assembly
// time, before the manager accepts jobs.
func (m *Manager) Instrument(reg *obs.Registry) {
	state := func(s string) *obs.Counter {
		return reg.Counter("gqosm_gram_jobs_total",
			"GRAM job state transitions by state", "state", s)
	}
	m.mu.Lock()
	m.met = gramMetrics{
		submitted:    state("submitted"),
		submitErrors: state("submit_error"),
		done:         state("done"),
		failed:       state("failed"),
		canceled:     state("canceled"),
	}
	m.mu.Unlock()
	reg.GaugeFunc("gqosm_gram_jobs_running",
		"Jobs currently in a non-terminal state", func() float64 {
			m.mu.Lock()
			defer m.mu.Unlock()
			n := 0
			for _, st := range m.jobs {
				if !st.job.State.Terminal() {
					n++
				}
			}
			return float64(n)
		})
}

type jobState struct {
	job   Job
	timer clockx.Timer // completion timer, nil once terminal
}

// NewManager returns a job manager driven by the given clock.
func NewManager(clock clockx.Clock) *Manager {
	return &Manager{clock: clock, jobs: make(map[JobID]*jobState), nextPID: 1000}
}

// Subscribe registers a state-change observer. Callbacks run synchronously
// with the transition; they must not call back into the Manager.
func (m *Manager) Subscribe(f StateFunc) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.subs = append(m.subs, f)
}

// Submit parses the RSL job description and starts the job immediately
// (pending → active), returning its snapshot with the assigned PID. The
// RSL should carry `executable="..."`; a numeric `duration` attribute (in
// seconds) schedules automatic completion, otherwise the job runs until
// Cancel or Fail. label tags the job (Job.Label) outside the RSL, the way
// GARA's Create takes its tag, so one job shape is parsed once however
// many sessions submit it.
func (m *Manager) Submit(spec, label string) (Job, error) {
	var job Job
	err := m.faults.Do("gram.submit", func() error {
		j, err := m.submit(spec, label)
		if err == nil {
			job = j
		}
		return err
	})
	if err != nil {
		m.met.submitErrors.Inc()
		return Job{}, err
	}
	return job, nil
}

func (m *Manager) submit(spec, label string) (Job, error) {
	node, err := rsl.ParseCached(spec)
	if err != nil {
		return Job{}, fmt.Errorf("gram: bad RSL: %w", err)
	}
	if node.Str("executable", "") == "" {
		return Job{}, errors.New(`gram: RSL must carry executable="..."`)
	}
	duration := node.Num("duration", 0)

	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return Job{}, errors.New("gram: manager closed")
	}
	m.nextID++
	m.nextPID++
	st := &jobState{job: Job{
		ID:    JobID("job-" + strconv.Itoa(m.nextID)),
		Label: label,
		PID:   m.nextPID,
		State: StateActive,
	}}
	m.jobs[st.job.ID] = st
	if duration > 0 {
		id := st.job.ID
		st.timer = m.clock.AfterFunc(time.Duration(duration*float64(time.Second)), func() {
			// Completion driven by the clock; ignore error if the job
			// was cancelled in the meantime.
			_ = m.finish(id, StateDone)
		})
	}
	job := st.job
	subs := append([]StateFunc(nil), m.subs...)
	m.mu.Unlock()
	m.met.submitted.Inc()
	for _, s := range subs {
		s(job)
	}
	return job, nil
}

// PruneTerminal removes terminal jobs from the table and returns how
// many it removed. Terminal jobs are normally retained so their final
// state stays queryable; the soak harness prunes them at quiesce points
// so multi-million-op runs hold a bounded working set.
func (m *Manager) PruneTerminal() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	pruned := 0
	for id, st := range m.jobs {
		if st.job.State.Terminal() {
			delete(m.jobs, id)
			pruned++
		}
	}
	return pruned
}

// Cancel terminates a running job.
func (m *Manager) Cancel(id JobID) error { return m.finish(id, StateCanceled) }

// Fail marks a running job failed (used by failure injection in
// experiments).
func (m *Manager) Fail(id JobID) error { return m.finish(id, StateFailed) }

// Complete marks a running job done (for jobs without a duration).
func (m *Manager) Complete(id JobID) error { return m.finish(id, StateDone) }

func (m *Manager) finish(id JobID, final State) error {
	m.mu.Lock()
	st, ok := m.jobs[id]
	if !ok {
		m.mu.Unlock()
		return fmt.Errorf("%w: %s", ErrUnknownJob, id)
	}
	if st.job.State.Terminal() {
		m.mu.Unlock()
		return fmt.Errorf("%w: %s is %s", ErrTerminal, id, st.job.State)
	}
	if st.timer != nil {
		st.timer.Stop()
		st.timer = nil
	}
	st.job.State = final
	job := st.job
	subs := append([]StateFunc(nil), m.subs...)
	m.mu.Unlock()
	switch final {
	case StateDone:
		m.met.done.Inc()
	case StateFailed:
		m.met.failed.Inc()
	case StateCanceled:
		m.met.canceled.Inc()
	}
	for _, s := range subs {
		s(job)
	}
	return nil
}

// Job returns a snapshot of the job.
func (m *Manager) Job(id JobID) (Job, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	st, ok := m.jobs[id]
	if !ok {
		return Job{}, fmt.Errorf("%w: %s", ErrUnknownJob, id)
	}
	return st.job, nil
}

// Close cancels all running jobs and stops their timers.
func (m *Manager) Close() {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return
	}
	m.closed = true
	var running []JobID
	for id, st := range m.jobs {
		if !st.job.State.Terminal() {
			running = append(running, id)
		}
	}
	m.mu.Unlock()
	sort.Slice(running, func(i, j int) bool { return running[i] < running[j] })
	for _, id := range running {
		_ = m.finish(id, StateCanceled)
	}
}
