package core

// This file is the group-commit intake queue in front of the admission
// pipeline (prepare / admit in negotiate.go): a bounded per-shard queue
// that coalesces prepared admissions so one admit call carries many. The
// pipeline is the same whatever the batch size — quality clamping, budget
// checks, ID issue order, GARA reservation, per-session confirm timers,
// per-session WAL records — so a batch of one produces byte-identical
// broker state to an unqueued RequestService; what a larger batch buys is
// that the lock acquisitions, the allocator rebalance + view publication,
// the activity-log render and the WAL fsync are paid once per BATCH.
//
// Flush discipline. Flushes are driven four ways, all deterministic on
// the manual clock: (1) a queue reaching MaxBatch is flushed inline by
// the submitter that filled it; (2) FlushIntake drains every shard in
// index order — the serial harnesses' quiesce primitive; (3) when
// FlushEvery > 0, an idle timer armed on first enqueue flushes whatever
// accumulated (it re-arms on the next enqueue, never free-runs, so a
// 72-hour drain Advance fires it at most once); (4) RequestService on a
// queue-configured broker enqueues and then takes the shard's flush
// mutex: the first waiter in becomes the group-commit leader and drains
// everything queued behind it — batches form naturally under contention,
// exactly like a WAL group commit.
//
// Failure semantics. Queued tickets fail with ErrClosed on Close/Crash;
// everything past the queue is admit's (each member individually atomic,
// one fsync over per-session records, a crash mid-batch preserves a
// CRC-clean prefix — see wal.AppendBatch).

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"gqosm/internal/clockx"
	"gqosm/internal/obs"
)

// ErrIntakeFull is the intake's backpressure signal: the target shard's
// queue is at capacity. Callers shed load or retry after a flush; the
// JSON transport maps it to 429.
var ErrIntakeFull = errors.New("core: intake queue full")

// errIntakeDisabled is returned by Submit on a broker built without
// Config.Intake.Enabled.
var errIntakeDisabled = errors.New("core: intake not enabled")

// IntakeConfig enables and sizes the group-commit admission intake.
type IntakeConfig struct {
	// Enabled turns the queue on. Off (the zero value) Submit fails and
	// RequestService admits inline on the caller's goroutine.
	Enabled bool
	// MaxBatch caps how many queued admissions one flush drains into a
	// single allocator pass (default 32). A queue reaching MaxBatch is
	// flushed inline by the submitter that filled it.
	MaxBatch int
	// Depth bounds each shard's queue; a Submit beyond it is refused
	// with ErrIntakeFull (default 256).
	Depth int
	// FlushEvery, when > 0, bounds how long a queued admission can wait
	// for company: a timer armed on the first enqueue after an idle
	// period flushes whatever accumulated. 0 (the default) relies on
	// size-triggered flushes, RequestService leaders and explicit
	// FlushIntake calls only.
	FlushEvery time.Duration
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

// shardQueue is one shard's bounded intake queue of prepared admissions
// (discovery ran at submit time; the flush never re-runs it).
type shardQueue struct {
	mu    sync.Mutex
	queue []*admission
}

func (q *shardQueue) depth() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.queue)
}

// intake is the broker-side machinery; nil on brokers built without it.
type intake struct {
	b   *Broker
	cfg IntakeConfig

	queues []*shardQueue
	// flushMu serializes flushes per shard — the group-commit leader
	// lock. A waiter blocked on it becomes the next leader and drains
	// everything queued meanwhile. It is held across the allocator,
	// GARA and install stages but never while blocking on a queue's mu,
	// so submitters keep enqueueing under a running flush.
	flushMu []sync.Mutex

	// timerMu guards the single idle-flush timer (armed only when
	// FlushEvery > 0 and at most one pending at a time, so a long
	// manual-clock Advance fires it once, not once per period).
	timerMu sync.Mutex
	timer   clockx.Timer

	submitted    *obs.Counter
	rejectedFull *obs.Counter
	flushes      *obs.Counter
	batchSize    *obs.Histogram
}

func newIntake(b *Broker, cfg IntakeConfig, reg *obs.Registry) *intake {
	in := &intake{
		b:       b,
		cfg:     cfg.withDefaults(),
		queues:  make([]*shardQueue, len(b.shards)),
		flushMu: make([]sync.Mutex, len(b.shards)),
		submitted: reg.Counter("gqosm_intake_submitted_total",
			"Admissions accepted into the intake queues"),
		rejectedFull: reg.Counter("gqosm_intake_rejected_total",
			"Admissions refused with ErrIntakeFull (queue backpressure)"),
		flushes: reg.Counter("gqosm_intake_flushes_total",
			"Group-commit flushes executed"),
		batchSize: reg.Histogram("gqosm_intake_batch_size",
			"Admissions per group-commit flush",
			[]float64{1, 2, 4, 8, 16, 32, 64}),
	}
	for i := range in.queues {
		in.queues[i] = &shardQueue{}
		q := in.queues[i]
		reg.GaugeFunc("gqosm_intake_queue_depth",
			"Queued admissions awaiting a group-commit flush, per shard",
			func() float64 { return float64(q.depth()) },
			"shard", shardLabel(i))
	}
	return in
}

// IntakePending counts admissions sitting in the intake queues (0 when
// the intake is disabled). Harness quiesce points require it to be 0 —
// every submitted admission was flushed.
func (b *Broker) IntakePending() int {
	if b.intake == nil {
		return 0
	}
	n := 0
	for _, q := range b.intake.queues {
		n += q.depth()
	}
	return n
}

// Submit prepares an admission, enqueues it on its placement shard's
// queue and returns a ticket for the outcome. prepare's failures are
// immediate, exactly as on RequestService; the rest of the pipeline runs
// at the next flush. A full queue refuses with ErrIntakeFull — the
// backpressure contract.
func (b *Broker) Submit(req Request) (*IntakeTicket, error) {
	in := b.intake
	if in == nil {
		return nil, errIntakeDisabled
	}
	m, err := b.prepare(req)
	if err != nil {
		return nil, err
	}
	depth, err := in.enqueue(m)
	if err != nil {
		return nil, err
	}
	if depth >= in.cfg.MaxBatch {
		in.flushShard(m.order[0].index)
	} else {
		in.armTimer()
	}
	return &m.IntakeTicket, nil
}

// enqueue appends m to its placement shard's queue and reports the depth
// it reached, or refuses with ErrIntakeFull at Depth.
func (in *intake) enqueue(m *admission) (int, error) {
	si := m.order[0].index
	m.done = make(chan struct{})
	q := in.queues[si]
	q.mu.Lock()
	if len(q.queue) >= in.cfg.Depth {
		q.mu.Unlock()
		in.rejectedFull.Inc()
		return 0, in.b.refused(fmt.Errorf("%w: shard %d at depth %d", ErrIntakeFull, si, in.cfg.Depth))
	}
	q.queue = append(q.queue, m)
	depth := len(q.queue)
	q.mu.Unlock()
	in.submitted.Inc()
	if in.b.closed.Load() {
		// The broker shut down between prepare's gate and the enqueue;
		// drain so the ticket cannot hang (idempotent with close()).
		in.failQueued(ErrClosed)
		return 0, nil
	}
	return depth, nil
}

// FlushIntake drains every shard's intake queue now, in shard index
// order — the deterministic flush the serial harnesses and the idle
// timer use.
func (b *Broker) FlushIntake() {
	if b.intake == nil {
		return
	}
	for si := range b.intake.queues {
		b.intake.flushShard(si)
	}
}

// flushShard takes the shard's leader lock and drains its queue in
// MaxBatch slices until empty.
func (in *intake) flushShard(si int) {
	in.flushMu[si].Lock()
	defer in.flushMu[si].Unlock()
	for {
		q := in.queues[si]
		q.mu.Lock()
		n := len(q.queue)
		if n == 0 {
			q.mu.Unlock()
			return
		}
		if n > in.cfg.MaxBatch {
			n = in.cfg.MaxBatch
		}
		batch := append([]*admission(nil), q.queue[:n]...)
		rest := copy(q.queue, q.queue[n:])
		for i := rest; i < len(q.queue); i++ {
			q.queue[i] = nil
		}
		q.queue = q.queue[:rest]
		q.mu.Unlock()

		in.flushes.Inc()
		in.batchSize.Observe(float64(len(batch)))
		in.b.admit(in.b.shards[si], batch)
	}
}

// armTimer arms the idle-flush timer if FlushEvery is configured and no
// timer is already pending.
func (in *intake) armTimer() {
	if in.cfg.FlushEvery <= 0 {
		return
	}
	in.timerMu.Lock()
	if in.timer == nil && !in.b.closed.Load() {
		in.timer = in.b.clock.AfterFunc(in.cfg.FlushEvery, in.onTimer)
	}
	in.timerMu.Unlock()
}

func (in *intake) onTimer() {
	in.timerMu.Lock()
	in.timer = nil
	in.timerMu.Unlock()
	in.b.FlushIntake()
	if in.b.IntakePending() > 0 {
		// Entries raced in behind the flush; cover them too.
		in.armTimer()
	}
}

// close stops the idle timer and fails every queued ticket with err.
// Called from Close and Crash after the closed flag flips; a flush
// already in flight rolls its own batch back against the closed gate.
func (in *intake) close(err error) {
	in.timerMu.Lock()
	if in.timer != nil {
		in.timer.Stop()
		in.timer = nil
	}
	in.timerMu.Unlock()
	in.failQueued(err)
}

// failQueued drains every queue, failing the removed tickets with err.
func (in *intake) failQueued(err error) {
	for _, q := range in.queues {
		q.mu.Lock()
		entries := q.queue
		q.queue = nil
		q.mu.Unlock()
		for _, m := range entries {
			in.b.resolve(m, err)
		}
	}
}
