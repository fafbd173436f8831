package core

// This file is the group-commit intake queue in front of the admission
// pipeline (prepare / admit in negotiate.go): a bounded queue that
// coalesces prepared admissions so one admit call carries many. Every
// broker has one; it is the only way into admit. The pipeline is the
// same whatever the batch size — quality clamping, budget checks, ID
// issue order, GARA reservation, per-session confirm timers, per-session
// WAL records — so a batch of one produces byte-identical broker state to
// a batch of eight; what a larger batch buys is that the lock
// acquisitions, the allocator rebalance + view publication, the
// activity-log render and the WAL fsync are paid once per BATCH.
//
// Flush discipline. Flushes are driven three ways, none by a timer: (1) a
// queue reaching MaxBatch is flushed inline by the submitter that filled
// it; (2) FlushIntake drains the queue — the serial harnesses' quiesce
// primitive; (3) RequestService takes the flush mutex. Uncontended (the
// mutex is free and the queue empty) it admits its request on the
// caller's goroutine as a batch of one, without a ticket; otherwise it
// enqueues and waits on the mutex: the first waiter in becomes the
// group-commit leader and drains everything queued behind it — batches
// form naturally under contention, exactly like a WAL group commit.
//
// Failure semantics. Queued tickets fail with ErrClosed on Close/Crash;
// everything past the queue is admit's (each member individually atomic,
// one fsync over per-session records, a crash mid-batch preserves a
// CRC-clean prefix — see wal.AppendBatch).

import (
	"errors"
	"fmt"
	"sync"

	"gqosm/internal/obs"
)

// ErrIntakeFull is the intake's backpressure signal: the queue is at
// capacity. Callers shed load or retry after a flush; the JSON transport
// maps it to 429.
var ErrIntakeFull = errors.New("core: intake queue full")

// IntakeConfig sizes the group-commit admission intake every broker has.
type IntakeConfig struct {
	// Enabled is read by nothing: every broker has its intake. bench/
	// still writes it (ROADMAP item 28 drops the literal, then the field).
	Enabled bool
	// MaxBatch caps how many queued admissions one flush drains into a
	// single allocator pass (default 32). A queue reaching MaxBatch is
	// flushed inline by the submitter that filled it.
	MaxBatch int
	// Depth bounds the queue; a Submit beyond it is refused with
	// ErrIntakeFull (default 256).
	Depth int
}

func (c IntakeConfig) withDefaults() IntakeConfig {
	if c.MaxBatch <= 0 {
		c.MaxBatch = 32
	}
	if c.Depth <= 0 {
		c.Depth = 256
	}
	return c
}

// IntakeTicket is a submitted admission's future. Exactly one of
// (offer, err) is set when done closes.
type IntakeTicket struct {
	done  chan struct{}
	offer *Offer
	err   error
}

// Wait blocks until the admission is flushed (or the broker shuts
// down) and returns its outcome.
func (t *IntakeTicket) Wait() (*Offer, error) {
	<-t.done
	return t.offer, t.err
}

// Resolved reports whether the ticket's outcome is already available.
func (t *IntakeTicket) Resolved() bool {
	select {
	case <-t.done:
		return true
	default:
		return false
	}
}

// intake is the broker-side machinery.
type intake struct {
	b   *Broker
	cfg IntakeConfig

	// mu guards queue, the bounded queue of prepared admissions
	// (discovery ran at submit time; the flush never re-runs it).
	mu    sync.Mutex
	queue []*admission
	// flushMu serializes flushes — the group-commit leader lock. A waiter
	// blocked on it becomes the next leader and drains everything queued
	// meanwhile. It is held across the allocator, GARA and install stages
	// but never while blocking on mu, so submitters keep enqueueing under
	// a running flush.
	flushMu sync.Mutex

	submitted    *obs.Counter
	rejectedFull *obs.Counter
	flushes      *obs.Counter
	batchSize    *obs.Histogram
}

func newIntake(b *Broker, cfg IntakeConfig, reg *obs.Registry) *intake {
	in := &intake{
		b:   b,
		cfg: cfg.withDefaults(),
		submitted: reg.Counter("gqosm_intake_submitted_total",
			"Admissions accepted into the intake queue"),
		rejectedFull: reg.Counter("gqosm_intake_rejected_total",
			"Admissions refused with ErrIntakeFull (queue backpressure)"),
		flushes: reg.Counter("gqosm_intake_flushes_total",
			"Group-commit flushes executed"),
		batchSize: reg.Histogram("gqosm_intake_batch_size",
			"Admissions per group-commit flush",
			[]float64{1, 2, 4, 8, 16, 32, 64}),
	}
	reg.GaugeFunc("gqosm_intake_queue_depth",
		"Queued admissions awaiting a group-commit flush",
		func() float64 { return float64(in.depth()) })
	return in
}

func (in *intake) depth() int {
	in.mu.Lock()
	defer in.mu.Unlock()
	return len(in.queue)
}

// IntakePending counts admissions sitting in the intake queue. Harness
// quiesce points require it to be 0 — every submitted admission was
// flushed.
func (b *Broker) IntakePending() int { return b.intake.depth() }

// Submit prepares an admission, enqueues it and returns a ticket for the
// outcome. prepare's failures are immediate, exactly as on
// RequestService; the rest of the pipeline runs at the next flush. A full
// queue refuses with ErrIntakeFull — the backpressure contract.
func (b *Broker) Submit(req Request) (*IntakeTicket, error) {
	in := b.intake
	m, err := b.prepare(req, false)
	if err != nil {
		return nil, err
	}
	depth, err := in.enqueue(m)
	if err != nil {
		return nil, err
	}
	if depth >= in.cfg.MaxBatch {
		in.flush()
	}
	return &m.IntakeTicket, nil
}

// enqueue appends m to the queue and reports the depth it reached, or
// refuses with ErrIntakeFull at Depth.
func (in *intake) enqueue(m *admission) (int, error) {
	m.done = make(chan struct{})
	in.mu.Lock()
	if len(in.queue) >= in.cfg.Depth {
		in.mu.Unlock()
		in.rejectedFull.Inc()
		return 0, in.b.refused(fmt.Errorf("%w: at depth %d", ErrIntakeFull, in.cfg.Depth))
	}
	in.queue = append(in.queue, m)
	depth := len(in.queue)
	in.mu.Unlock()
	in.submitted.Inc()
	if in.b.closed.Load() {
		// The broker shut down between prepare's gate and the enqueue;
		// drain so the ticket cannot hang (idempotent with close()).
		in.failQueued(ErrClosed)
		return 0, nil
	}
	return depth, nil
}

// FlushIntake drains the intake queue now — the deterministic flush the
// serial harnesses use.
func (b *Broker) FlushIntake() { b.intake.flush() }

// admitInline admits m on the caller's goroutine as a batch of one when
// no flush is running and nothing is queued, and reports whether it did.
// Nothing queued means no admission submitted earlier is overtaken.
func (in *intake) admitInline(m *admission) bool {
	if !in.flushMu.TryLock() {
		return false
	}
	defer in.flushMu.Unlock()
	if in.depth() > 0 {
		return false
	}
	in.b.admit([]*admission{m})
	return true
}

// flush takes the leader lock and drains the queue in MaxBatch slices
// until empty.
func (in *intake) flush() {
	in.flushMu.Lock()
	defer in.flushMu.Unlock()
	for {
		in.mu.Lock()
		n := len(in.queue)
		if n == 0 {
			in.mu.Unlock()
			return
		}
		if n > in.cfg.MaxBatch {
			n = in.cfg.MaxBatch
		}
		batch := append([]*admission(nil), in.queue[:n]...)
		rest := copy(in.queue, in.queue[n:])
		for i := rest; i < len(in.queue); i++ {
			in.queue[i] = nil
		}
		in.queue = in.queue[:rest]
		in.mu.Unlock()

		in.flushes.Inc()
		in.batchSize.Observe(float64(len(batch)))
		in.b.admit(batch)
	}
}

// failQueued drains the queue, failing the removed tickets with err.
// Close and Crash call it after the closed flag flips; a flush already in
// flight rolls its own batch back against the closed gate.
func (in *intake) failQueued(err error) {
	in.mu.Lock()
	entries := in.queue
	in.queue = nil
	in.mu.Unlock()
	for _, m := range entries {
		in.b.resolve(m, err)
	}
}
