package sim

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"gqosm/internal/core"
	"gqosm/internal/httpapi"
	"gqosm/internal/obs"
	"gqosm/internal/pricing"
	"gqosm/internal/resource"
	"gqosm/internal/sla"
)

// This file is the lifecycle-stress workload and its three engine
// configurations. N clients drive a shared broker through the full
// Fig. 3 lifecycle — request, accept, reject, invoke, terminate, offer
// expiry, failure/recovery and optimizer passes — each on a
// deterministic per-client seed schedule:
//
//   - RunParallel: the clients are goroutines; the global interleaving
//     is not deterministic, the per-client schedules are. Measures
//     throughput and admission latency.
//   - RunChaos: stress + fault rate > 0, stepped serially round-robin.
//     The substrates (GARA managers, NRM, GRAM) and the broker's
//     RM-facing call sites inject seeded faults — errors, virtual
//     latency, hangs-until-deadline, partial failures (committed but
//     reply lost) and crash-then-recover windows; latency under faults
//     is accounted virtually (recorded, never slept). Two runs with the
//     same configuration produce bit-identical reports.
//   - RunRestartChaos: chaos + WAL + N kill points (see engine.kill).
//     Deterministic too, except the wall-clock recovery time, which CI
//     strips before diffing reports.

// StressConfig sizes a stress run; the three entry points share it.
type StressConfig struct {
	// Clients is the number of simulated clients (default 8).
	Clients int
	// Ops is the total number of lifecycle operations across all clients
	// (default 10000).
	Ops int
	// Phases is the number of mid-run quiesce points (default 10).
	// RunRestartChaos has none: its kill points are its quiesce points.
	Phases int
	// Seed is the base seed; client i draws from rand.NewSource(Seed+i),
	// so each client's operation schedule is a pure function of the seed.
	// It also seeds the fault injector.
	Seed int64
	// Shards is the broker shard count (default 1, the classic monolithic
	// domain).
	Shards int
	// Obs receives the run's metrics; nil lets the broker create a
	// private registry.
	Obs *obs.Registry
	// DisableCaches turns the broker's hot-path caches off: the uncached
	// broker is the reference cache_test.go compares the cached one to.
	DisableCaches bool
	// Intake turns the broker's group-commit intake queue on. Goroutine
	// clients call RequestService, so concurrent requests queued behind
	// the same flush leader land in one allocator pass and one WAL
	// fsync. Serial clients Submit during a round-robin
	// round and the workload flushes once per round and resolves tickets
	// in schedule order, so batches form deterministically (up to Clients
	// admissions per shard per flush) and are journaled — one fsync per
	// batch — before any kill point takes its digest.
	Intake bool
	// Transport selects how RunParallel's clients submit admissions: ""
	// (in-process calls) or "http" (a loopback JSON-API server — the
	// compact non-SOAP transport — with each admission a real POST
	// /api/v1/request; lifecycle operations stay in-process). Composes
	// with Intake: the server's admissions share group commits. The
	// serial replays stay in-process for determinism.
	Transport string
	// Policy names the broker's adaptation policy ("" = "paper").
	Policy string
	// FaultRate is the per-site injection probability; 0 runs without an
	// injector.
	FaultRate float64
	// Restarts is how many times RunRestartChaos kills and recovers the
	// broker mid-workload (default 3). Kill points are spaced evenly.
	Restarts int
	// WALDir is RunRestartChaos's journal directory; empty creates (and
	// removes) a temporary one.
	WALDir string
}

func (cfg StressConfig) withDefaults() StressConfig {
	orDefault(&cfg.Clients, 8)
	orDefault(&cfg.Ops, 10000)
	orDefault(&cfg.Phases, 10)
	orDefault(&cfg.Restarts, 3)
	orDefault(&cfg.Shards, 1)
	return cfg
}

// DefaultParallelPlan is the §5.6 partition every single-broker
// configuration runs on.
func DefaultParallelPlan() core.CapacityPlan {
	return core.CapacityPlan{
		Guaranteed: resource.Capacity{CPU: 15, MemoryMB: 6144, DiskGB: 120},
		Adaptive:   resource.Capacity{CPU: 6, MemoryMB: 2048, DiskGB: 40},
		BestEffort: resource.Capacity{CPU: 5, MemoryMB: 2048, DiskGB: 40},
	}
}

// ParallelResult reports a RunParallel run.
type ParallelResult struct {
	Clients, Ops, Phases int
	// Requested / Admitted / Terminated count successful lifecycle
	// transitions across all clients.
	Requested, Admitted, Terminated int
	// Checks counts invariant suite passes (one per quiesce point plus
	// the post-drain pass).
	Checks int
	// Elapsed is the wall-clock time spent in the phased operation loop,
	// in nanoseconds when marshalled (time.Duration's default encoding).
	Elapsed time.Duration
	// ElapsedMS duplicates Elapsed in milliseconds for consumers that
	// should not have to know Go's Duration-as-nanoseconds convention.
	ElapsedMS float64 `json:"elapsed_ms"`
	// OpsPerSec is Ops / Elapsed.
	OpsPerSec float64
	// AdmitP50MS / AdmitP95MS / AdmitP99MS are admission-latency
	// percentiles in milliseconds, estimated from the broker's
	// gqosm_broker_admission_seconds histogram by linear interpolation
	// within fixed buckets.
	AdmitP50MS float64 `json:"admit_p50_ms"`
	AdmitP95MS float64 `json:"admit_p95_ms"`
	AdmitP99MS float64 `json:"admit_p99_ms"`
	// Shards is the broker shard count the run used.
	Shards int `json:"shards"`
	// ShardSessions counts sessions routed to each shard (terminal
	// included), sampled at the last quiesce point before the drain; it
	// shows how evenly the placement layer spread the load. Only emitted
	// for sharded runs (Shards > 1), so the monolithic default keeps the
	// flat all-scalar schema.
	ShardSessions []int `json:"shard_sessions,omitempty"`
	// ShardUtilization is each shard's guaranteed-partition load factor at
	// the same sample point (max over dimensions of demand / bound).
	ShardUtilization []float64 `json:"shard_utilization,omitempty"`
	// CacheHitRate is hits / (hits + misses) of the discovery cache over
	// the run. Omitted when the cache saw no traffic (disabled runs keep
	// the historical schema).
	CacheHitRate float64 `json:"cache_hit_rate,omitempty"`
	// Intake reports whether admissions rode the group-commit batch
	// path; IntakeBatchMean is the mean flushed batch size
	// (submissions / flushes). Both omitted for direct-path runs so the
	// historical schema is unchanged.
	Intake          bool    `json:"intake,omitempty"`
	IntakeBatchMean float64 `json:"intake_batch_mean,omitempty"`
	// Transport echoes StressConfig.Transport for "http" runs; omitted
	// for the in-process default so historical reports keep their schema.
	Transport string `json:"transport,omitempty"`
}

// ChaosResult reports a RunChaos run. Every field is deterministic for
// a given configuration: wall-clock measurements are deliberately
// excluded so the report can be diffed byte-for-byte across runs.
type ChaosResult struct {
	Seed      int64   `json:"seed"`
	FaultRate float64 `json:"fault_rate"`
	Shards    int     `json:"shards"`
	Clients   int     `json:"clients"`
	Ops       int     `json:"ops"`
	Phases    int     `json:"phases"`

	// Intake / IntakeBatchMean as in ParallelResult.
	Intake          bool    `json:"intake,omitempty"`
	IntakeBatchMean float64 `json:"intake_batch_mean,omitempty"`

	// Requested / Admitted / Terminated count successful lifecycle
	// transitions; AdmitRate is Admitted / Requested.
	Requested  int     `json:"requested"`
	Admitted   int     `json:"admitted"`
	Terminated int     `json:"terminated"`
	AdmitRate  float64 `json:"admit_rate"`

	// Degradations / Restorations are the broker's scenario-3/2a
	// lifecycle counters.
	Degradations int64 `json:"degradations"`
	Restorations int64 `json:"restorations"`

	// Retries / Timeouts / Unavailable are the retry-policy budget
	// totals across all RM-facing call sites.
	Retries     int64 `json:"retries"`
	Timeouts    int64 `json:"timeouts"`
	Unavailable int64 `json:"unavailable"`

	// FaultsInjected totals injections; FaultsByKind breaks them down
	// ("error", "latency", "hang", "partial", "crash").
	FaultsInjected int64            `json:"faults_injected"`
	FaultsByKind   map[string]int64 `json:"faults_by_kind"`

	// ReconciledCancels counts parked reservation cancels cleared by
	// the drain-time reconciliation sweeps.
	ReconciledCancels int `json:"reconciled_cancels"`

	// VirtualP95MS is the p95 of injected virtual latency (recorded
	// delays plus timed-out attempt deadlines) in milliseconds — the
	// deterministic stand-in for "p95 under faults".
	VirtualP95MS float64 `json:"virtual_p95_ms"`

	// InvariantViolations totals oracle violations across all checks
	// (capacity lost at the drain included); Checks counts oracle passes.
	InvariantViolations int      `json:"invariant_violations"`
	Checks              int      `json:"checks"`
	Violations          []string `json:"violations,omitempty"`
}

// Failed reports whether CI should gate the run red.
func (r *ChaosResult) Failed() bool { return r.InvariantViolations > 0 }

// RestartResult reports a RunRestartChaos run. Every field except
// RecoveryP95MS is deterministic for a given configuration.
type RestartResult struct {
	Seed      int64   `json:"seed"`
	FaultRate float64 `json:"fault_rate"`
	Shards    int     `json:"shards"`
	Clients   int     `json:"clients"`
	Ops       int     `json:"ops"`
	Restarts  int     `json:"restarts"`

	Requested  int `json:"requested"`
	Admitted   int `json:"admitted"`
	Terminated int `json:"terminated"`

	// Intake / IntakeBatchMean as in ParallelResult.
	Intake          bool    `json:"intake,omitempty"`
	IntakeBatchMean float64 `json:"intake_batch_mean,omitempty"`

	// ReplayedRecords sums WAL records replayed across all recoveries;
	// SnapshotSeqs lists each recovery's snapshot base sequence.
	ReplayedRecords int      `json:"replayed_records"`
	SnapshotSeqs    []uint64 `json:"snapshot_seqs"`
	// Adopted / Refunded / ParkedCleared sum the reconcile sweeps'
	// counters across recoveries.
	Adopted       int `json:"adopted"`
	Refunded      int `json:"refunded"`
	ParkedCleared int `json:"parked_cleared"`
	// DigestMatches counts recoveries whose post-recovery state digest
	// was byte-identical to the pre-kill digest. CI requires it to
	// equal Restarts.
	DigestMatches int `json:"digest_matches"`

	// WALRecords / WALSnapshots are the final broker's totals.
	WALRecords   int64 `json:"wal_records"`
	WALSnapshots int64 `json:"wal_snapshots"`

	// CapacityRestored is true when the final drain returned every
	// shard to its configured plan — nothing leaked or was lost across
	// all the restarts. CI gates on it.
	CapacityRestored bool `json:"capacity_restored"`

	// InvariantViolations totals oracle violations (digest mismatches
	// included); Checks counts oracle passes.
	InvariantViolations int      `json:"invariant_violations"`
	Checks              int      `json:"checks"`
	Violations          []string `json:"violations,omitempty"`

	// RecoveryP95MS is the p95 wall-clock time of core.Recover across
	// the run's restarts, in milliseconds. The ONLY non-deterministic
	// field: CI strips it before diffing reports for determinism.
	RecoveryP95MS float64 `json:"recovery_p95_ms"`
}

// Failed reports whether CI should gate the run red.
func (r *RestartResult) Failed() bool {
	return r.InvariantViolations > 0 || !r.CapacityRestored || r.DigestMatches != r.Restarts
}

// newStress assembles the stress workload on a single-broker topology
// (the caller closes it). concurrent runs the clients as goroutines
// between phase barriers; kills > 0 makes the broker durable and kills
// it that many times.
func newStress(cfg StressConfig, concurrent bool, kills int) (*engine, *stressWorkload, error) {
	topo, err := newTopology(topoConfig{
		Base: ClusterConfig{
			Plan: DefaultParallelPlan(), Shards: cfg.Shards, Obs: cfg.Obs,
			DisableCaches: cfg.DisableCaches,
			Intake:        core.IntakeConfig{Enabled: cfg.Intake},
			Policy:        cfg.Policy,
			WAL:           core.DurabilityConfig{Dir: cfg.WALDir},
		},
		FaultRate: cfg.FaultRate,
		Seed:      cfg.Seed,
		Durable:   kills > 0,
		Transport: cfg.Transport,
	})
	if err != nil {
		return nil, nil, err
	}
	// Serial clients on an intake broker Submit and the workload flushes
	// once per round; every other configuration calls RequestService
	// (goroutine clients on an intake broker then share group commits).
	w := &stressWorkload{cluster: topo.members[0], queued: cfg.Intake && !concurrent}
	for i := 0; i < cfg.Clients; i++ {
		w.clients = append(w.clients, &parClient{
			id:      i,
			rng:     rand.New(rand.NewSource(cfg.Seed + int64(i))),
			cluster: w.cluster,
			queued:  w.queued,
			http:    topo.api,
		})
	}
	e := &engine{topo: topo, work: w, kills: kills, concurrent: concurrent}
	perPhase := max(1, cfg.Ops/(cfg.Clients*cfg.Phases))
	switch {
	case kills > 0:
		e.steps = max(kills+1, cfg.Ops/cfg.Clients)
	case concurrent:
		w.burst, e.steps, e.quiesceEvery = perPhase, cfg.Phases, 1
	default:
		e.steps, e.quiesceEvery = perPhase*cfg.Phases, perPhase
	}
	w.ops = e.steps * cfg.Clients * max(1, w.burst)
	return e, w, nil
}

// RunParallel executes the concurrent lifecycle stress and returns its
// throughput counters. It fails when the oracle finds a violation at a
// quiesce point, or when capacity is lost or double-spent by the end.
func RunParallel(cfg StressConfig) (*ParallelResult, error) {
	cfg = cfg.withDefaults()
	e, w, err := newStress(cfg, true, 0)
	if err != nil {
		return nil, err
	}
	defer e.topo.close()
	res := &ParallelResult{Clients: cfg.Clients, Phases: cfg.Phases, Ops: w.ops,
		Shards: cfg.Shards, Transport: cfg.Transport}

	sw := startStopwatch()
	if err := e.play(); err != nil {
		return res, err
	}
	res.Elapsed = sw.elapsed()
	res.ElapsedMS = float64(res.Elapsed) / float64(time.Millisecond)
	if res.Elapsed > 0 {
		res.OpsPerSec = float64(res.Ops) / res.Elapsed.Seconds()
	}
	// Sample placement balance at the final quiesce point, while sessions
	// are still live; after the drain every shard reads empty.
	if b := w.cluster.Broker; cfg.Shards > 1 {
		res.ShardSessions = b.ShardSessionCounts()
		for _, a := range b.Allocators() {
			res.ShardUtilization = append(res.ShardUtilization, a.LoadFactor())
		}
	}
	e.finish()

	res.Requested, res.Admitted, res.Terminated = w.tally()
	res.Checks = e.out.Checks
	admit := w.cluster.Obs.Histogram("gqosm_broker_admission_seconds",
		"RequestService latency (discovery, admission, reservation)", nil)
	res.AdmitP50MS = admit.Quantile(0.50) * 1e3
	res.AdmitP95MS = admit.Quantile(0.95) * 1e3
	res.AdmitP99MS = admit.Quantile(0.99) * 1e3
	// Counter.Value is nil-safe, so a cache-disabled run reads zeros.
	hits := w.cluster.Obs.Counter("gqosm_discovery_cache_hits_total",
		"Discovery queries answered from the generation-stamped cache").Value()
	misses := w.cluster.Obs.Counter("gqosm_discovery_cache_misses_total",
		"Discovery queries that fell through to a registry Find").Value()
	if hits+misses > 0 {
		res.CacheHitRate = float64(hits) / float64(hits+misses)
	}
	if cfg.Intake {
		res.Intake, res.IntakeBatchMean = true, intakeBatchMean(w.cluster.Obs)
	}
	if e.out.InvariantViolations > 0 {
		// The report has no violations field: surface them as the error.
		return res, fmt.Errorf("%d invariant violation(s): %s", e.out.InvariantViolations, strings.Join(e.out.Violations, "; "))
	}
	return res, nil
}

// RunChaos replays the stress workload serially under seeded fault
// injection and returns the deterministic report. A non-nil error means
// the harness itself failed; oracle violations are reported in the
// result, not as an error, so the report is always emitted for CI to
// gate on.
func RunChaos(cfg StressConfig) (*ChaosResult, error) {
	cfg = cfg.withDefaults()
	e, w, err := newStress(cfg, false, 0)
	if err != nil {
		return nil, err
	}
	defer e.topo.close()
	if err := e.run(); err != nil {
		return nil, err
	}
	out, inj := &e.out, e.topo.inj
	res := &ChaosResult{
		Seed: cfg.Seed, FaultRate: cfg.FaultRate, Shards: cfg.Shards,
		Clients: cfg.Clients, Phases: cfg.Phases, Ops: w.ops,
		Degradations:      lifecycleCount(w.cluster.Obs, "degrade"),
		Restorations:      lifecycleCount(w.cluster.Obs, "restore"),
		FaultsInjected:    inj.Total(),
		FaultsByKind:      inj.CountsByKind(),
		VirtualP95MS:      inj.VirtualP95MS(),
		ReconciledCancels: out.ReconciledCancels,
		Checks:            out.Checks, InvariantViolations: out.InvariantViolations, Violations: out.Violations,
	}
	res.Requested, res.Admitted, res.Terminated = w.tally()
	if res.Requested > 0 {
		res.AdmitRate = float64(res.Admitted) / float64(res.Requested)
	}
	res.Retries, res.Timeouts, res.Unavailable = w.cluster.Broker.RetryStats()
	if cfg.Intake {
		res.Intake, res.IntakeBatchMean = true, intakeBatchMean(w.cluster.Obs)
	}
	return res, nil
}

// RunRestartChaos replays the chaos workload against a durable broker,
// killing and recovering it cfg.Restarts times. A non-nil error means
// the harness itself failed; oracle violations and digest mismatches
// are reported in the result for CI to gate on.
func RunRestartChaos(cfg StressConfig) (*RestartResult, error) {
	cfg = cfg.withDefaults()
	e, w, err := newStress(cfg, false, cfg.Restarts)
	if err != nil {
		return nil, err
	}
	defer e.topo.close()
	if err := e.run(); err != nil {
		return nil, err
	}
	out := &e.out
	res := &RestartResult{
		Seed: cfg.Seed, FaultRate: cfg.FaultRate, Shards: cfg.Shards,
		Clients: cfg.Clients, Ops: w.ops, Restarts: cfg.Restarts,
		ReplayedRecords: out.ReplayedRecords, SnapshotSeqs: out.SnapshotSeqs,
		Adopted: out.Adopted, Refunded: out.Refunded, ParkedCleared: out.ParkedCleared,
		DigestMatches: out.DigestMatches, CapacityRestored: out.CapacityRestored,
		Checks: out.Checks, InvariantViolations: out.InvariantViolations, Violations: out.Violations,
	}
	res.Requested, res.Admitted, res.Terminated = w.tally()
	res.WALRecords, _, res.WALSnapshots = w.cluster.Broker.WALStats()
	sort.Float64s(out.recoveryMS)
	res.RecoveryP95MS = percentile(out.recoveryMS, 0.95)
	if cfg.Intake {
		res.Intake, res.IntakeBatchMean = true, intakeBatchMean(w.cluster.Obs)
	}
	return res, nil
}

// stressWorkload steps the op-mix clients against one broker.
type stressWorkload struct {
	cluster *Cluster
	clients []*parClient
	// burst > 0 runs every client for that many operations per step, each
	// on its own goroutine; 0 steps the clients serially round-robin, one
	// operation each, so their schedules interleave the same way on every
	// run.
	burst int
	// queued clients Submit; the round's submissions flush together.
	queued bool
	// ops is the number of client operations the step loop performs.
	ops int
}

// tally sums the clients' lifecycle counters.
func (w *stressWorkload) tally() (requested, admitted, terminated int) {
	for _, cl := range w.clients {
		requested += cl.requested
		admitted += cl.admitted
		terminated += cl.terminated
	}
	return
}

func (w *stressWorkload) step(int) {
	if w.burst > 0 {
		var wg sync.WaitGroup
		for _, cl := range w.clients {
			wg.Add(1)
			go func(cl *parClient) {
				defer wg.Done()
				for i := 0; i < w.burst; i++ {
					cl.step()
				}
			}(cl)
		}
		wg.Wait()
		return
	}
	for _, cl := range w.clients {
		cl.step()
	}
	if w.queued {
		// One deterministic group commit per round: everything the round
		// submitted flushes together, and tickets resolve in schedule
		// order.
		w.cluster.Broker.FlushIntake()
		for _, cl := range w.clients {
			cl.resolveTickets()
		}
	}
}

func (w *stressWorkload) drain() {
	// The clients' own failure reports (op 8) end with the run: recover
	// all failed capacity before tearing the sessions down.
	w.cluster.Broker.NotifyFailure(resource.Capacity{})
	for _, cl := range w.clients {
		cl.drain()
	}
}

// parClient is one client's deterministic schedule and local session
// bookkeeping.
type parClient struct {
	id      int
	rng     *rand.Rand
	cluster *Cluster

	// queued clients Submit instead of calling RequestService; tickets
	// holds their unresolved futures between a round's submits and the
	// workload's flush.
	queued  bool
	tickets []*core.IntakeTicket

	// http, when set, sends "new request" admissions over the loopback
	// JSON API instead of in-process calls (StressConfig.Transport).
	http *httpapi.Client

	proposed []sla.ID
	active   []sla.ID

	requested, admitted, terminated int
}

// step performs one randomly chosen lifecycle operation. The mix mirrors
// the deterministic fuzz driver's.
//
// Every step draws exactly three values from the client's PRNG, whatever
// the broker answers: a conditional draw (e.g. only rolling an index when
// the proposed list is non-empty) would let other clients' interleaving —
// via shared broker outcomes — shift this client's stream, and the
// per-client schedule would stop being a pure function of the seed.
func (c *parClient) step() {
	b := c.cluster.Broker
	clock := c.cluster.Clock
	op := c.rng.Intn(10)
	r1 := c.rng.Intn(1 << 16)
	r2 := c.rng.Intn(1 << 16)
	switch {
	case op <= 2: // new request
		c.requested++
		var req core.Request
		now := clock.Now()
		tag := strconv.Itoa(c.id) + "-" + strconv.Itoa(c.requested)
		if r1%2 == 0 {
			req = core.Request{
				Service: "simulation",
				Client:  "par-g" + tag,
				Class:   sla.ClassGuaranteed,
				Spec:    sla.NewSpec(sla.Exact(resource.CPU, float64(1+r2%8))),
				Start:   now,
				End:     now.Add(time.Duration(1+(r2>>3)%6) * time.Hour),
			}
		} else {
			min := float64(1 + r2%3)
			req = core.Request{
				Service:           "simulation",
				Client:            "par-c" + tag,
				Class:             sla.ClassControlledLoad,
				Spec:              sla.NewSpec(sla.Range(resource.CPU, min, min+float64((r2>>2)%6))),
				Start:             now,
				End:               now.Add(time.Duration(1+(r2>>5)%6) * time.Hour),
				AcceptDegradation: (r1>>1)%2 == 0,
			}
		}
		c.request(req)
	case op == 3: // accept
		if id, ok := c.pick(&c.proposed, r1); ok {
			if err := b.Accept(id); err == nil {
				c.admitted++
				c.active = append(c.active, id)
			}
		}
	case op == 4: // reject
		if id, ok := c.pick(&c.proposed, r1); ok {
			_ = b.Reject(id)
		}
	case op == 5: // invoke
		if len(c.active) > 0 {
			_, _ = b.Invoke(c.active[r1%len(c.active)])
		}
	case op == 6: // terminate
		if id, ok := c.pick(&c.active, r1); ok {
			if err := b.Terminate(id, "parallel stress"); err == nil {
				c.terminated++
			}
		}
	case op == 7: // time passes; offers expire, sessions lapse
		clock.Advance(time.Duration(1+r1%10) * time.Minute)
		b.ExpireDue()
	case op == 8: // failure / recovery
		if r1%2 == 0 {
			b.NotifyFailure(resource.Nodes(float64(r2 % 6)))
		} else {
			b.NotifyFailure(resource.Capacity{})
		}
	case op == 9: // best-effort churn + optimizer
		client := "par-be" + strconv.Itoa(c.id)
		if r1%2 == 0 {
			_ = b.BestEffortRequest(client, resource.Nodes(float64(1+r2%4)))
		} else {
			_ = b.BestEffortRelease(client)
		}
		_, _ = b.RunOptimizer()
	}
}

// request admits req over the client's configured path and records the
// proposed SLA. A queued client's outcome is deferred: the workload
// flushes the intake once per round and calls resolveTickets.
func (c *parClient) request(req core.Request) {
	b := c.cluster.Broker
	if c.http != nil {
		// Over the wire the client just sees an offer or a typed error.
		if offer, err := c.http.RequestService(req); err == nil {
			c.proposed = append(c.proposed, sla.ID(offer.SLAID))
		}
		return
	}
	if c.queued {
		if t, err := b.Submit(req); err == nil {
			c.tickets = append(c.tickets, t)
		}
	} else if offer, err := b.RequestService(req); err == nil {
		c.proposed = append(c.proposed, offer.SLA.ID)
	}
}

// resolveTickets collects this client's queued admission outcomes after
// the workload's FlushIntake. Submission order is preserved, so the
// proposed list grows deterministically.
func (c *parClient) resolveTickets() {
	for _, t := range c.tickets {
		if offer, err := t.Wait(); err == nil {
			c.proposed = append(c.proposed, offer.SLA.ID)
		}
	}
	c.tickets = c.tickets[:0]
}

// pick removes and returns the r-selected element of *ids.
func (c *parClient) pick(ids *[]sla.ID, r int) (sla.ID, bool) {
	if len(*ids) == 0 {
		return "", false
	}
	i := r % len(*ids)
	id := (*ids)[i]
	*ids = append((*ids)[:i], (*ids)[i+1:]...)
	return id, true
}

// drain finishes every session this client still tracks.
func (c *parClient) drain() {
	b := c.cluster.Broker
	for _, id := range c.proposed {
		_ = b.Reject(id)
	}
	c.proposed = nil
	for _, id := range c.active {
		if err := b.Terminate(id, "drain"); err == nil {
			c.terminated++
		}
	}
	c.active = nil
	_ = b.BestEffortRelease("par-be" + strconv.Itoa(c.id))
}

// digestBroker renders the broker's externally observable state —
// sessions, allocator book, best-effort table, ledger aggregates — as the
// comparable image the kill perturbation takes before a crash and after
// the recovery. Parked cancels are deliberately excluded: the recovery
// sweep clears them by design, so they differ across a kill legitimately.
func digestBroker(c *Cluster) string {
	b := c.Broker
	type shard struct {
		Guaranteed                                []string
		AvailGuaranteed, AvailBestEffort, Offline resource.Capacity
		BestEffort                                []core.BEState
		BENextSeq                                 int
	}
	d := struct {
		Sessions      []core.SessionInfo
		Allocated     map[sla.ID]resource.Capacity
		Shards        []shard
		LedgerNet     float64
		LedgerTotals  map[pricing.EntryKind]float64
		LedgerEntries int
		LedgerEvicted int64
	}{Sessions: b.SessionInfos(), Allocated: map[sla.ID]resource.Capacity{}}
	for _, doc := range b.Sessions(nil) {
		d.Allocated[doc.ID] = doc.Allocated
	}
	for _, a := range b.Allocators() {
		users := a.GuaranteedUsers()
		sort.Strings(users)
		offline, be, nextSeq := a.ExportAux()
		d.Shards = append(d.Shards, shard{users, a.AvailableGuaranteed(), a.AvailableBestEffort(), offline, be, nextSeq})
	}
	b.Ledger().ExportWith(func(st pricing.State) {
		d.LedgerNet, d.LedgerTotals, d.LedgerEntries, d.LedgerEvicted = st.Net, st.Totals, len(st.Entries), st.Evicted
	})
	data, err := json.Marshal(d)
	if err != nil {
		panic(err) // plain data: Marshal cannot fail on it
	}
	return string(data)
}
