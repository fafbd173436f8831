package sim

import (
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"gqosm/internal/clockx"
	"gqosm/internal/cluster"
	"gqosm/internal/core"
	"gqosm/internal/faultx"
	"gqosm/internal/httpapi"
	"gqosm/internal/invariant"
	"gqosm/internal/sla"
	"gqosm/internal/stack"
)

// This file is the one simulation engine. Every broker-driving harness
// in the package — parallel stress, chaos, restart-chaos, the
// multi-broker cluster run, the hand-off crash drill, scenarios and
// soaks — is a configuration of it, composed from four orthogonal parts:
//
//   - a workload (the application model): the stress op-mix clients
//     (stress.go), the scenario arrival trace with its departure heap
//     (scenario.go), or the cluster sliding window (clustersim.go);
//   - a topology (the resource model): one broker × N shards, optionally
//     behind the loopback JSON listener, or N brokers behind a
//     cluster.Front; WAL and intake on or off;
//   - perturbations: a seeded fault injector at a rate, kill +
//     core.Recover at evenly spaced steps with a pre/post state-digest
//     compare, forced hand-off migrations every k steps, a shadow policy;
//   - oracles: the invariant suite at every quiesce point, its strict
//     Final rules after the drain, and the capacity-restored check.
//
// The engine owns the determinism rules the serial harnesses rely on:
// everything runs on one manual clock; every workload step draws a fixed
// number of PRNG values whatever the broker answers; under faults the
// stress clients step serially round-robin so the injector's single PRNG
// sees an identical call sequence on every run; and a queued intake is
// flushed once per round. The paper-claim replays (claims.go, e56.go,
// workload.go) drive the allocator model rather than a broker and stay
// outside it.

// workload is the application model: what the simulated clients do.
type workload interface {
	// step performs the i-th unit of client activity.
	step(i int)
	// drain drives every session the workload still tracks terminal.
	drain()
	// tally files the workload's counters (and its own sub-block, if it
	// has one) into the report's outcome.
	tally(o *Outcome)
}

// topoConfig describes the resource model a run is assembled on.
type topoConfig struct {
	// Base is the per-broker assembly. The topology supplies its Clock
	// and, under faults, its Faults and RMPolicy.
	Base stack.Config
	// Brokers > 0 puts that many members behind a cluster.Front, with
	// Base.Plan split across them; 0 is a single broker driven directly.
	Brokers int
	// FaultRate > 0 installs a fault injector seeded with Seed on every
	// substrate and RM-facing call site; 0 means no injector at all.
	FaultRate float64
	Seed      int64
	// Durable journals every broker to Base.WALDir (one subdirectory
	// per member); an empty WALDir creates and removes a temporary root.
	Durable bool
	// Transport "http" serves the first member's Stack.Mount, the handler
	// aqosd listens on (StressConfig.Transport); "" stays in-process.
	Transport string
}

// topology is an assembled resource model on one shared manual clock.
type topology struct {
	clock   *clockx.Manual
	inj     *faultx.Injector // nil without faults; its methods are nil-safe
	members []*Cluster
	front   *cluster.Front  // nil for a single broker
	api     *httpapi.Client // nil in-process
	closers []func()
}

func newTopology(cfg topoConfig) (_ *topology, err error) {
	t := &topology{clock: clockx.NewManual(Epoch)}
	defer func() {
		if err != nil {
			t.close()
		}
	}()
	base := cfg.Base
	base.Clock = t.clock
	if cfg.Durable && base.WALDir == "" {
		dir, err := os.MkdirTemp("", "gqosm-wal-*")
		if err != nil {
			return nil, err
		}
		t.closers = append(t.closers, func() { os.RemoveAll(dir) })
		base.WALDir = dir
	}
	if cfg.FaultRate > 0 {
		t.inj = faultx.New(cfg.Seed, t.clock)
		// Crash windows are kept short relative to the workload's simulated
		// time (clients advance the clock ~1–10 min on a tenth of their
		// steps), so crashed sites actually recover mid-run and the
		// crash-then-recover path is exercised, not just fail-fast.
		t.inj.SetDefault(faultx.Plan{Rate: cfg.FaultRate, CrashFor: 2 * time.Minute})
		// The WAL's own append/sync sites stay fault-free: a sealed log
		// models a disk that died BEFORE the kill, so state written after
		// the seal is legitimately unrecoverable and the kill perturbation's
		// digest equality cannot hold. WAL-site faults are exercised by the
		// crash-point matrix tests instead, where the oracle is coherence,
		// not bit-equality.
		t.inj.SetPlan("wal.append", faultx.Plan{})
		t.inj.SetPlan("wal.sync", faultx.Plan{})
		base.Faults = t.inj
		// Backoff MUST stay 0: the serial harness runs on the manual
		// clock, and a backoff sleep would park forever with nobody
		// advancing time. Timed-out hang attempts charge the 2 s
		// deadline to the virtual latency accounting instead.
		base.RMPolicy = core.RetryPolicy{Attempts: 3, Timeout: 2 * time.Second}
	}

	parts := []core.CapacityPlan{base.Plan}
	if cfg.Brokers > 0 {
		parts = base.Plan.Split(cfg.Brokers)
	}
	slots := make([]*cluster.Slot, len(parts))
	for i, part := range parts {
		mc := base
		if cfg.Brokers > 0 {
			mc.Plan = part
			mc.Domain = fmt.Sprintf("node-%d", i+1)
			mc.Services = catchAll(mc.Domain, base.Plan.Total())
			if base.WALDir != "" {
				mc.WALDir = filepath.Join(base.WALDir, mc.Domain)
			}
		}
		c, err := NewCluster(mc)
		if err != nil {
			return nil, err
		}
		t.closers = append(t.closers, c.Close)
		t.members = append(t.members, c)
		slots[i] = cluster.NewSlot(c.Broker)
	}
	if cfg.Brokers > 0 {
		if t.front, err = cluster.New(cluster.Config{}, slots...); err != nil {
			return nil, err
		}
	}

	switch cfg.Transport {
	case "":
	case "http":
		// Admissions become real POSTs through the codec, the error
		// taxonomy, and (with the intake on) shared group commits on the
		// server side, while the rest of the lifecycle stays in-process.
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, fmt.Errorf("transport http: %w", err)
		}
		srv := &http.Server{Handler: t.members[0].Mount()}
		go srv.Serve(ln) //nolint:errcheck // shut down via close below
		t.closers = append(t.closers, func() { srv.Close() })
		t.api = httpapi.NewClient("http://" + ln.Addr().String())
	default:
		return nil, fmt.Errorf("bad transport %q (want \"\" or \"http\")", cfg.Transport)
	}
	return t, nil
}

// close releases everything the topology opened, newest first.
func (t *topology) close() {
	for i := len(t.closers) - 1; i >= 0; i-- {
		t.closers[i]()
	}
}

func (t *topology) brokers() []*core.Broker {
	out := make([]*core.Broker, len(t.members))
	for i, m := range t.members {
		out[i] = m.Broker
	}
	return out
}

// settle waits out the front tier's background work. A fan-out's slow
// losers and their retractions are still committing/tearing down in
// background goroutines, and the oracle would read their half-installed
// sessions (or still-held temporary reservations) as violations.
func (t *topology) settle() {
	if t.front != nil {
		t.front.Quiesce()
	}
}

// nextSlot returns the slot indexes of the member that owns id and of
// its ring successor — the forced-migration pair.
func (t *topology) nextSlot(id sla.ID) (src, dst int, ok bool) {
	dom, ok := t.front.Owner(id)
	if !ok {
		return 0, 0, false
	}
	for j, s := range t.front.Slots() {
		if s.Domain() == dom {
			src = j
			break
		}
	}
	return src, (src + 1) % len(t.members), true
}

// engine is one configured run: workload × topology × perturbations ×
// oracles.
type engine struct {
	topo  *topology
	work  workload
	steps int

	// quiesceEvery is the mid-run oracle cadence in steps; 0 leaves only
	// the kill points and the post-drain pass.
	quiesceEvery int
	// onQuiesce, when set, observes each mid-run quiesce (1-based).
	onQuiesce func(n int)
	// prune compacts terminal state on every member after each mid-run
	// oracle pass, bounding the working set of long runs.
	prune bool
	// lifecycle > 0 sweeps expiries before each oracle pass and adds the
	// expiry-boundary rules for that confirm window, which only hold
	// after a sweep at the same clock reading. Not for workloads that let
	// offers ride (the stress clients expire them on their own schedule).
	lifecycle time.Duration

	// kills is how many times the (single, durable) broker is crashed and
	// recovered from its WAL, at evenly spaced steps.
	kills int
	// migrateEvery forces a hand-off of victim() ("" when there is none)
	// to the next member every that many steps; 0 disables.
	migrateEvery int
	victim       func() sla.ID

	// What the run found and measured; engine.report files it (report.go).
	oracle Oracle
	// capacityRestored is true when the drain returned every shard of
	// every member to its configured plan.
	capacityRestored bool
	// faults carries the drain's reconciled cancels and the retry budget
	// spent by broker incarnations a kill has since replaced.
	faults     Faults
	recovery   Recovery  // one increment / entry per kill
	recoveryMS []float64 // wall-clock core.Recover times
	migration  Migration
	// shardSessions / shardUtilization sample a sharded single broker's
	// placement balance before the drain; after it every shard reads empty.
	shardSessions    []int
	shardUtilization []float64
	lat              map[string]any
}

// maxDetails bounds the violation strings a report carries.
const maxDetails = 20

// record files an oracle or harness failure under stage.
func (e *engine) record(stage string, err error) {
	if err == nil {
		return
	}
	add := func(s string) {
		e.oracle.Violations++
		if len(e.oracle.Details) < maxDetails {
			e.oracle.Details = append(e.oracle.Details, stage+": "+s)
		}
	}
	var ie *invariant.Error
	if errors.As(err, &ie) {
		for _, v := range ie.Violations {
			add(v.String())
		}
		return
	}
	add(err.Error())
}

// quiesce is one oracle pass at a point where nothing is in flight. The
// single-broker rules are the one-member case of the cluster rules, so
// every topology runs the same set; final adds the drain-only rules (no
// reservation outlives its session, every degraded-then-torn-down
// session was refunded).
func (e *engine) quiesce(stage string, final bool) {
	e.topo.settle()
	e.oracle.Checks++
	now := e.topo.clock.Now()
	if e.lifecycle > 0 {
		for _, m := range e.topo.members {
			m.Broker.ExpireDue()
		}
	}
	e.record(stage, invariant.CheckCluster(e.topo.brokers()...))
	for _, m := range e.topo.members {
		e.record(stage, invariant.CheckPool(m.Pool, now))
		e.record(stage, invariant.CheckIntake(m.Broker))
		e.record(stage, invariant.CheckReservations(m.Broker, m.GARA, invariant.ReservationCheck{Final: final}))
		if e.lifecycle > 0 {
			e.record(stage, invariant.CheckLifecycle(m.Broker, now, invariant.LifecycleCheck{ConfirmWindow: e.lifecycle}))
		}
	}
}

// play runs the step loop with its perturbations and mid-run oracle
// passes. A non-nil error means the harness itself failed.
func (e *engine) play() error {
	sw := startStopwatch()
	defer func() { e.lat = map[string]any{"elapsed_ms": sw.ms()} }()
	killEvery := e.steps / (e.kills + 1)
	for i := 0; i < e.steps; i++ {
		e.work.step(i)
		if e.migrateEvery > 0 && (i+1)%e.migrateEvery == 0 {
			e.migrate()
		}
		if len(e.recovery.SnapshotSeqs) < e.kills && (i+1)%killEvery == 0 {
			if err := e.kill(); err != nil {
				return err
			}
		}
		if e.quiesceEvery > 0 && (i+1)%e.quiesceEvery == 0 {
			n := (i + 1) / e.quiesceEvery
			e.quiesce(fmt.Sprintf("quiesce %d", n), false)
			if e.prune {
				for _, m := range e.topo.members {
					m.Broker.PruneTerminal()
					m.GARA.PruneCanceled()
					m.GRAM.PruneTerminal()
				}
			}
			if e.onQuiesce != nil {
				e.onQuiesce(n)
			}
		}
	}
	return nil
}

// migrate is the forced-rebalancing perturbation.
func (e *engine) migrate() {
	id := e.victim()
	if _, dst, ok := e.topo.nextSlot(id); ok {
		if err := e.topo.front.Migrate(id, e.topo.front.Slots()[dst].Domain()); err == nil {
			e.migration.Migrations++
		} else {
			e.migration.Failures++
		}
	}
}

// kill is the restart perturbation: digest the live broker's externally
// observable state, crash it, rebuild a replacement with core.Recover
// against the surviving substrates, and require the recovered digest to
// match the pre-kill digest exactly — "recovered capacity exactly
// matches reality". The workload then continues against the replacement.
// The pre-kill quiesce matters under a queued intake: queued-but-
// unflushed admissions are not yet journaled, so the digest must never
// see them (CheckIntake enforces that the round's flush ran).
func (e *engine) kill() error {
	m := e.topo.members[0]
	stage := fmt.Sprintf("restart %d", len(e.recovery.SnapshotSeqs)+1)
	e.quiesce(stage+" pre-kill", false)
	pre := digestBroker(m)

	e.addRetryStats(m.Broker)
	m.Broker.Crash()
	sw := startStopwatch()
	stats, err := m.RecoverBroker()
	if err != nil {
		return fmt.Errorf("%s: recover: %w", stage, err)
	}
	e.recoveryMS = append(e.recoveryMS, sw.ms())
	e.recovery.ReplayedRecords += stats.ReplayedRecords
	e.recovery.SnapshotSeqs = append(e.recovery.SnapshotSeqs, stats.SnapshotSeq)
	e.recovery.Adopted += stats.Adopted
	e.recovery.Refunded += stats.Refunded
	e.recovery.ParkedCleared += stats.ParkedCleared

	if post := digestBroker(m); post == pre {
		e.recovery.DigestMatches++
	} else {
		e.record(stage, fmt.Errorf("recovered state diverged\n pre: %s\npost: %s", pre, post))
	}
	e.quiesce(stage+" post-recovery", false)
	return nil
}

// addRetryStats banks b's retry-budget totals; a recovered broker starts
// its own from zero.
func (e *engine) addRetryStats(b *core.Broker) {
	retries, timeouts, unavailable := b.RetryStats()
	e.faults.Retries += retries
	e.faults.Timeouts += timeouts
	e.faults.Unavailable += unavailable
}

// finish drains on a healthy substrate — injection off (crash windows
// cleared), blocked hangs released, every session driven terminal,
// parked cancels reconciled — then holds the final oracle pass to the
// stricter drain-only rules and verifies no capacity was lost or
// double-spent.
func (e *engine) finish() {
	if b := e.topo.members[0].Broker; e.topo.front == nil && len(b.Allocators()) > 1 {
		e.shardSessions = b.ShardSessionCounts()
		for _, a := range b.Allocators() {
			e.shardUtilization = append(e.shardUtilization, a.LoadFactor())
		}
	}
	e.topo.inj.SetEnabled(false)
	e.topo.inj.ReleaseHangs()
	e.topo.settle()
	e.work.drain()
	for _, m := range e.topo.members {
		e.faults.ReconciledCancels += m.Broker.ReconcileReservations()
	}
	e.topo.clock.Advance(72 * time.Hour) // expire surviving offers and sessions via their timers
	for _, m := range e.topo.members {
		m.Broker.ExpireDue()
		e.faults.ReconciledCancels += m.Broker.ReconcileReservations()
	}
	e.quiesce("post-drain", true)

	e.capacityRestored = true
	lost := func(m *Cluster, shard int, format string, args ...any) {
		e.capacityRestored = false
		e.record(fmt.Sprintf("drain: %s shard %d", m.Broker.Domain(), shard), fmt.Errorf(format, args...))
	}
	for _, m := range e.topo.members {
		e.addRetryStats(m.Broker)
		for si, alloc := range m.Broker.Allocators() {
			plan := alloc.Plan()
			if users := alloc.GuaranteedUsers(); len(users) != 0 {
				lost(m, si, "capacity leaked: %d guaranteed grant(s) survive the drain: %v", len(users), users)
			}
			if got := alloc.AvailableGuaranteed(); !got.Equal(plan.Guaranteed) {
				lost(m, si, "capacity lost: guaranteed headroom %v after drain, want %v", got, plan.Guaranteed)
			}
			if got := alloc.AvailableBestEffort(); !got.Equal(plan.Total()) {
				lost(m, si, "capacity lost: best-effort headroom %v after drain, want %v", got, plan.Total())
			}
		}
	}
}

// run is play then finish.
func (e *engine) run() error {
	if err := e.play(); err != nil {
		return err
	}
	e.finish()
	return nil
}

// orDefault fills a knob the caller left unset (zero or negative).
func orDefault(knob *int, def int) {
	if *knob <= 0 {
		*knob = def
	}
}

// stopwatch is the package's single wall-clock read site: every elapsed
// and latency field of every report is measured through it, so the
// deterministic fields never depend on the real clock.
type stopwatch time.Time

func startStopwatch() stopwatch { return stopwatch(time.Now()) }

// ms is the elapsed time in (fractional) milliseconds.
func (s stopwatch) ms() float64 { return float64(time.Since(time.Time(s))) / float64(time.Millisecond) }

// percentile reads the nearest-rank percentile (the ⌈p·n⌉-th smallest
// value) from an ascending slice; 0 when empty.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p * float64(len(sorted))))
	return sorted[min(max(rank, 1), len(sorted))-1]
}
