package sim

import (
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"gqosm/internal/clockx"
	"gqosm/internal/core"
	"gqosm/internal/faultx"
	"gqosm/internal/httpapi"
	"gqosm/internal/invariant"
	"gqosm/internal/stack"
)

// This file is the one simulation engine. Every broker-driving harness
// in the package — parallel stress, chaos (killed and WAL-recovered), the
// multi-broker federation run, scenarios and soaks, the C1–C3 claim
// replays — is a configuration of it, composed from four orthogonal
// parts:
//
//   - a workload (the application model): the stress op-mix clients
//     (stress.go), the scenario arrival trace with its departure heap
//     (scenario.go; C1 and C2 are traces too), the federation's sliding
//     window (federation.go), or C3's best-effort floor (claims.go);
//   - a topology (the resource model): one broker, optionally behind the
//     loopback JSON listener, or N brokers federated the way aqosd -peer
//     federates them (the first member's core.Federation asks the others
//     in order); WAL on or off. Every member runs core.Monitor at
//     core.DefaultMonitorInterval, the management loop aqosd runs by
//     default, so expiry, the optimizer and parked-cancel reconciliation
//     happen on its ticks, not where a harness chooses;
//   - perturbations: a seeded fault injector at a rate, and kill +
//     core.Recover at evenly spaced steps with a pre/post state-digest
//     compare;
//   - oracles: the invariant suite at every quiesce point, its strict
//     Final rules after the drain (72 h of ticks on a healthy
//     substrate), and the capacity-restored check.
//
// The engine owns the determinism rules the serial harnesses rely on:
// everything runs on one manual clock, which fires the monitor's ticks
// synchronously inside Advance; every workload step draws a fixed
// number of PRNG values whatever the broker answers; under faults the
// stress clients step serially round-robin so the injector's single PRNG
// sees an identical call sequence on every run; and the serial clients'
// intake is flushed once per round. Outside it stay the §5.6 script
// (e56.go), C4 (the optimizer alone), C5's burst (claims.go, on a stack)
// and Replay's rigid-partition reference (workload.go), the one thing the
// broker is not.

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
	// Brokers > 0 federates that many members, with Base.Plan split
	// across them; 0 is a single broker driven directly.
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
	// wirePeers makes the federation reach members 1..N-1 as aqosd -peer
	// does: a core.PeerClient over SOAP to a loopback listener serving the
	// member's Stack.Mount. false asks their brokers in-process.
	wirePeers bool
}

// topology is an assembled resource model on one shared manual clock.
type topology struct {
	clock   *clockx.Manual
	inj     *faultx.Injector // nil without faults; its methods are nil-safe
	members []*Cluster
	fed     *core.Federation // nil for a single broker
	api     *httpapi.Client  // nil in-process
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
	base.MonitorInterval = core.DefaultMonitorInterval
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
	}
	if cfg.Brokers > 0 {
		t.fed = core.NewFederation(t.members[0].Broker)
		for _, m := range t.members[1:] {
			var peer core.Peer = m.Broker
			if cfg.wirePeers {
				url, err := t.serve(m.Mount())
				if err != nil {
					return nil, fmt.Errorf("peer %s: %w", m.Broker.Domain(), err)
				}
				peer = &core.PeerClient{Domain: m.Broker.Domain(), Client: core.NewClient(url)}
			}
			if err := t.fed.AddPeer(peer); err != nil {
				return nil, err
			}
		}
	}

	switch cfg.Transport {
	case "":
	case "http":
		// Admissions become real POSTs through the codec, the error
		// taxonomy, and shared group commits on the server side, while
		// the rest of the lifecycle stays in-process.
		url, err := t.serve(t.members[0].Mount())
		if err != nil {
			return nil, fmt.Errorf("transport http: %w", err)
		}
		t.api = httpapi.NewClient(url)
	default:
		return nil, fmt.Errorf("bad transport %q (want \"\" or \"http\")", cfg.Transport)
	}
	return t, nil
}

// serve listens on a loopback port with h until close, returning its
// base URL.
func (t *topology) serve(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	srv := &http.Server{Handler: h}
	go srv.Serve(ln) //nolint:errcheck // shut down via close
	t.closers = append(t.closers, func() { srv.Close() })
	return "http://" + ln.Addr().String(), nil
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

// member returns the broker of the named member domain, nil if there is
// none.
func (t *topology) member(domain string) *core.Broker {
	for _, m := range t.members {
		if m.Broker.Domain() == domain {
			return m.Broker
		}
	}
	return nil
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
	// offers ride (the stress clients leave them to the monitor's ticks).
	lifecycle time.Duration

	// kills is how many times the (single, durable) broker is crashed and
	// recovered from its WAL, at evenly spaced steps.
	kills int

	// What the run found and measured; engine.report files it (report.go).
	oracle Oracle
	// capacityRestored is true when the drain returned every member to
	// its configured plan.
	capacityRestored bool
	// faults carries the retry budget spent and the parked cancels
	// reconciled, banked from every broker incarnation a kill replaced.
	faults   Faults
	recovery Recovery // one increment / entry per kill
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
	e.oracle.Checks++
	now := e.topo.clock.Now()
	if e.lifecycle > 0 {
		// The one hand-driven piece of the monitor's tick: a quiesce lands
		// between two ticks, and CheckLifecycle's expiry rules hold only
		// after a sweep at the same clock reading
		// (TestRunScenarioQuickAndDeterministic/lease-churn, seed 4).
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
			e.record(stage, invariant.CheckLifecycle(m.Broker, now, e.lifecycle))
		}
	}
}

// play runs the step loop with its perturbations and mid-run oracle
// passes. A non-nil error means the harness itself failed.
func (e *engine) play() error {
	killEvery := e.steps / (e.kills + 1)
	for i := 0; i < e.steps; i++ {
		e.work.step(i)
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

// kill is the restart perturbation: digest the live broker's externally
// observable state, crash it, rebuild a replacement with core.Recover
// against the surviving substrates, and require the recovered digest to
// match the pre-kill digest exactly — "recovered capacity exactly
// matches reality". The workload then continues against the replacement.
// The pre-kill quiesce matters because the serial clients queue:
// queued-but-unflushed admissions are not yet journaled, so the digest must never
// see them (CheckIntake enforces that the round's flush ran).
func (e *engine) kill() error {
	m := e.topo.members[0]
	stage := fmt.Sprintf("restart %d", len(e.recovery.SnapshotSeqs)+1)
	e.quiesce(stage+" pre-kill", false)
	pre := digestBroker(m)

	e.addRetryStats(m.Broker)
	m.Broker.Crash()
	stats, err := m.RecoverBroker()
	if err != nil {
		return fmt.Errorf("%s: recover: %w", stage, err)
	}
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
	retries, timeouts, unavailable, reconciled := b.RetryStats()
	e.faults.Retries += retries
	e.faults.Timeouts += timeouts
	e.faults.Unavailable += unavailable
	e.faults.ReconciledCancels += reconciled
}

// finish drains on a healthy substrate — injection off (crash windows
// cleared), blocked hangs released, every session driven terminal — then
// lets 72 h of monitor ticks expire what survives and reconcile parked
// cancels, holds the final oracle pass to the stricter drain-only rules
// and verifies no capacity was lost or double-spent.
func (e *engine) finish() {
	e.topo.inj.SetEnabled(false)
	e.topo.inj.ReleaseHangs()
	e.work.drain()
	e.topo.clock.Advance(72 * time.Hour)
	e.quiesce("post-drain", true)

	e.capacityRestored = true
	for _, m := range e.topo.members {
		e.addRetryStats(m.Broker)
		lost := func(format string, args ...any) {
			e.capacityRestored = false
			e.record("drain: "+m.Broker.Domain(), fmt.Errorf(format, args...))
		}
		alloc := m.Broker.Allocator()
		plan := alloc.Plan()
		if users := alloc.GuaranteedUsers(); len(users) != 0 {
			lost("capacity leaked: %d guaranteed grant(s) survive the drain: %v", len(users), users)
		}
		if got := alloc.AvailableGuaranteed(); !got.Equal(plan.Guaranteed) {
			lost("capacity lost: guaranteed headroom %v after drain, want %v", got, plan.Guaranteed)
		}
		if got := alloc.AvailableBestEffort(); !got.Equal(plan.Total()) {
			lost("capacity lost: best-effort headroom %v after drain, want %v", got, plan.Total())
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
