package sim

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"sort"

	"gqosm/internal/core"
)

// This file is the one report: every engine configuration and every
// gridsim mode emits a Report, filled in one place (engine.report) from
// what actually ran. DESIGN.md §17 has the block → fields → filler table.

// Schema is the version of the document; it changes when a key moves.
const Schema = "gqosm.report/v1"

// Report is what a run hands back and what gridsim -json marshals.
//
// Everything outside Latency is a function of the configuration: two runs
// of a deterministic mode are byte-identical once every "latency" key is
// deleted. A counter a run measures is always emitted, zero included;
// "not measured" is an absent sub-block, never an omitted scalar.
type Report struct {
	Schema string `json:"schema"`
	// Mode is the gridsim mode-table row (or, for a child, the entry point)
	// that produced the document.
	Mode string `json:"mode"`
	// Config echoes the knobs the run read, defaults applied.
	Config  map[string]any `json:"config"`
	Outcome Outcome        `json:"outcome"`
	Oracle  Oracle         `json:"oracle"`
	// Digest hashes the document without its latency blocks and with each
	// child stood in for by its own digest.
	Digest string `json:"digest"`
	// Latency holds every wall-clock or runtime-derived number and nothing
	// else: elapsed time, throughput, admission and recovery percentiles,
	// soak health samples.
	Latency map[string]any `json:"latency,omitempty"`
	// Runs nests the children of a composite mode by name.
	Runs map[string]*Report `json:"runs,omitempty"`
}

// Oracle is the run's verdict.
type Oracle struct {
	// Checks counts oracle passes; Violations totals what they found
	// (digest mismatches and lost capacity included); Details keeps the
	// first few findings and every failed assertion for diagnosis.
	Checks     int      `json:"checks"`
	Violations int      `json:"violations"`
	Details    []string `json:"details,omitempty"`
	// Gates are the named pass/fail verdicts beyond the violation count:
	// capacity_restored, digests_match, parity, single_owner, stable,
	// verified, shadow_clean. A run carries the ones it judged.
	Gates map[string]bool `json:"gates"`
}

// Outcome is what the run did. A composite has no tally of its own, so
// its counters are absent rather than zero.
type Outcome struct {
	*Tally
	// ShardSessions counts sessions routed to each shard (terminal
	// included) and ShardUtilization each shard's guaranteed-partition load
	// factor, sampled before the drain on a sharded single broker.
	ShardSessions    []int     `json:"shard_sessions,omitempty"`
	ShardUtilization []float64 `json:"shard_utilization,omitempty"`

	Scenario  *ScenarioTally `json:"scenario,omitempty"`  // scenario workload
	Front     *FrontTally    `json:"front,omitempty"`     // window workload behind a front tier
	Faults    *Faults        `json:"faults,omitempty"`    // fault injector installed
	Recovery  *Recovery      `json:"recovery,omitempty"`  // kill + WAL recovery
	Migration *Migration     `json:"migration,omitempty"` // forced hand-offs
	Handoff   *Handoff       `json:"handoff,omitempty"`   // hand-off crash drill
	Shadow    *Shadow        `json:"shadow,omitempty"`    // shadow-policy evaluation
}

// Tally is what every engine run measures: the workload's lifecycle
// counters and the brokers' own, summed over the topology's members.
type Tally struct {
	// Ops counts the workload operations performed (client steps, scenario
	// broker calls, window admissions).
	Ops        int64   `json:"ops"`
	Requested  int     `json:"requested"`
	Admitted   int     `json:"admitted"`
	Rejected   int     `json:"rejected"`
	Terminated int     `json:"terminated"`
	AdmitRate  float64 `json:"admit_rate"`
	// Degradations / Restorations / Promotions are the brokers' scenario-3,
	// 2a and 2b lifecycle counters; Revenue their ledgers' net.
	Degradations int64   `json:"degradations"`
	Restorations int64   `json:"restorations"`
	Promotions   int64   `json:"promotions"`
	Revenue      float64 `json:"revenue"`
	// CacheHitRate is hits / (hits + misses) of the discovery cache and
	// IntakeBatchMean submissions / flushes of the group-commit intake; 0
	// when the cache or the queue saw no traffic.
	CacheHitRate    float64 `json:"cache_hit_rate"`
	IntakeBatchMean float64 `json:"intake_batch_mean"`
}

// ScenarioTally is the scenario workload's own counters. Extras carries
// scenario-specific gauges (spike ratios, budget refusals, boundary
// races…), keyed per scenario.
type ScenarioTally struct {
	Arrivals       int                `json:"arrivals"`
	ExpiredOffers  int                `json:"expired_offers"`
	Renegotiations int                `json:"renegotiations"`
	RenegFailures  int                `json:"reneg_failures"`
	Extras         map[string]float64 `json:"extras,omitempty"`
}

// FrontTally is the window workload's view through the front tier.
type FrontTally struct {
	Errors    int `json:"errors"`
	Forwarded int `json:"forwarded"`
	// OutcomeDigest is the FNV-64a hash of the per-client outcome letters
	// ('A' admitted, 'R' rejected, 'E' error) — the value the N=1 vs N
	// parity gate compares.
	OutcomeDigest string `json:"outcome_digest"`
	// PerBroker is each member's load report after the drain.
	PerBroker []core.LoadReport `json:"per_broker"`
}

// Faults totals the injector's work and the retry budget spent on it.
type Faults struct {
	Injected int64            `json:"injected"`
	ByKind   map[string]int64 `json:"by_kind"` // "error", "latency", "hang", "partial", "crash"
	// Retries / Timeouts / Unavailable are the retry-policy totals across
	// all RM-facing call sites.
	Retries     int64 `json:"retries"`
	Timeouts    int64 `json:"timeouts"`
	Unavailable int64 `json:"unavailable"`
	// ReconciledCancels counts parked reservation cancels cleared by the
	// drain-time reconciliation sweeps.
	ReconciledCancels int `json:"reconciled_cancels"`
	// VirtualP95MS is the p95 of injected virtual latency (recorded delays
	// plus timed-out attempt deadlines) — deterministic, unlike Latency.
	VirtualP95MS float64 `json:"virtual_p95_ms"`
}

// Recovery sums the kill perturbation across its restarts.
type Recovery struct {
	Restarts int `json:"restarts"`
	// DigestMatches counts recoveries whose post-recovery state digest was
	// byte-identical to the pre-kill digest (gate digests_match).
	DigestMatches   int      `json:"digest_matches"`
	ReplayedRecords int      `json:"replayed_records"`
	SnapshotSeqs    []uint64 `json:"snapshot_seqs"`
	// Adopted / Refunded / ParkedCleared are the reconcile sweeps' counters.
	Adopted       int `json:"adopted"`
	Refunded      int `json:"refunded"`
	ParkedCleared int `json:"parked_cleared"`
	// WALRecords / WALSnapshots are the final broker's totals.
	WALRecords   int64 `json:"wal_records"`
	WALSnapshots int64 `json:"wal_snapshots"`
}

// Migration counts the forced hand-offs; they are cluster-internal and
// deliberately not part of any outcome digest.
type Migration struct {
	Migrations int `json:"migrations"`
	Failures   int `json:"failures"`
}

// Handoff reports the crash drill: the source is killed after the target
// committed the import, recovered, and reconciled through the front
// (gate single_owner).
type Handoff struct {
	MigratedID  string `json:"migrated_id"`
	Source      string `json:"source"`
	Target      string `json:"target"`
	Owners      int    `json:"owners"`
	OwnerDomain string `json:"owner_domain"`
	// Completed / Aborted are the front reconcile's counters;
	// HandoffsResolved the source recovery's inbound sweep.
	Completed        int `json:"completed"`
	Aborted          int `json:"aborted"`
	HandoffsResolved int `json:"handoffs_resolved"`
	ReplayedRecords  int `json:"replayed_records"`
}

// Shadow is one scenario's three-way policy evaluation (internal/shadow).
type Shadow struct {
	Candidate string `json:"candidate"`
	// Evaluations counts the shadow consultations — one per Algorithm-1
	// partition grant, the one decision behind core.Policy; Divergence
	// ("partition", its only key) how often the candidate's answer
	// differed.
	Evaluations int64            `json:"evaluations"`
	Divergence  map[string]int64 `json:"divergence"`
	// ActiveDigest and ShadowDigest hash the shadow-off and shadow-on runs'
	// outcome and oracle; equal means the consultation was inert (gate
	// shadow_clean).
	ActiveDigest string `json:"active_digest"`
	ShadowDigest string `json:"shadow_digest"`
	// Counterfactual deltas: candidate-as-active vs the active run.
	AdmitRate   Delta `json:"admit_rate"`
	Revenue     Delta `json:"revenue"`
	Utilization Delta `json:"utilization"`
}

// Delta is one metric compared across the active and counterfactual runs.
type Delta struct {
	Active    float64 `json:"active"`
	Candidate float64 `json:"candidate"`
	Delta     float64 `json:"delta"`
}

// Failed is the one gate: a violation, a false gate, or a failed child.
func (r *Report) Failed() bool {
	failed := r.Oracle.Violations > 0
	for _, ok := range r.Oracle.Gates {
		failed = failed || !ok
	}
	for _, child := range r.Runs {
		failed = failed || child.Failed()
	}
	return failed
}

// NewReport starts a report that is not itself an engine run — a
// composite of child runs — with the children's oracle counts summed.
// The caller adds gates, then Seals.
func NewReport(mode string, config map[string]any, runs map[string]*Report) *Report {
	r := &Report{Schema: Schema, Mode: mode, Config: config, Runs: runs, Oracle: Oracle{Gates: map[string]bool{}}}
	for _, child := range runs {
		r.Oracle.Checks += child.Oracle.Checks
		r.Oracle.Violations += child.Oracle.Violations
	}
	return r
}

// Seal computes the digest; it is the last step of building a report.
func (r *Report) Seal() *Report {
	bare, children := *r, map[string]string{}
	bare.Digest, bare.Latency, bare.Runs = "", nil, nil
	for name, child := range r.Runs {
		children[name] = child.Digest
	}
	r.Digest = Hash(&bare, children)
	return r
}

// Hash is the short sha256 of the values' JSON (maps in key order).
func Hash(values ...any) string {
	doc, err := json.Marshal(values)
	if err != nil {
		panic(err) // plain data: Marshal cannot fail on it
	}
	sum := sha256.Sum256(doc)
	return hex.EncodeToString(sum[:8])
}

// report fills the run's document from what the engine did. Run after
// finish; the caller adds what only it knows, then Seals.
func (e *engine) report(mode string, config map[string]any) *Report {
	r := &Report{Schema: Schema, Mode: mode, Config: config, Oracle: e.oracle, Latency: e.lat,
		Outcome: Outcome{Tally: &Tally{}, ShardSessions: e.shardSessions, ShardUtilization: e.shardUtilization}}
	r.Oracle.Gates = map[string]bool{"capacity_restored": e.capacityRestored}
	o, t := &r.Outcome, r.Outcome.Tally
	e.work.tally(o)
	if t.Requested > 0 {
		t.AdmitRate = float64(t.Admitted) / float64(t.Requested)
	}
	// The registry hands back existing series on re-registration, so broker
	// metrics are reachable by name without plumbing; Value is nil-safe.
	var hits, misses, submitted, flushes int64
	for _, m := range e.topo.members {
		event := func(kind string) int64 {
			return m.Obs.Counter("gqosm_broker_lifecycle_total", "SLA lifecycle events by kind", "event", kind).Value()
		}
		t.Degradations += event("degrade")
		t.Restorations += event("restore")
		t.Promotions += event("promote")
		t.Revenue += m.Broker.Ledger().NetRevenue()
		hits += m.Obs.Counter("gqosm_discovery_cache_hits_total",
			"Discovery queries answered from the generation-stamped cache").Value()
		misses += m.Obs.Counter("gqosm_discovery_cache_misses_total",
			"Discovery queries that fell through to a registry Find").Value()
		submitted += m.Obs.Counter("gqosm_intake_submitted_total",
			"Admissions accepted into the intake queues").Value()
		flushes += m.Obs.Counter("gqosm_intake_flushes_total",
			"Group-commit flushes executed").Value()
	}
	if hits+misses > 0 {
		t.CacheHitRate = float64(hits) / float64(hits+misses)
	}
	if flushes > 0 {
		t.IntakeBatchMean = float64(submitted) / float64(flushes)
	}

	first := e.topo.members[0]
	if inj := e.topo.inj; inj != nil {
		f := e.faults
		f.Injected, f.ByKind, f.VirtualP95MS = inj.Total(), inj.CountsByKind(), inj.VirtualP95MS()
		o.Faults = &f
	}
	if e.kills > 0 {
		rec := e.recovery
		rec.Restarts = e.kills
		rec.WALRecords, _, rec.WALSnapshots = first.Broker.WALStats()
		o.Recovery = &rec
		r.Oracle.Gates["digests_match"] = rec.DigestMatches == rec.Restarts
		sort.Float64s(e.recoveryMS)
		r.Latency["recovery_p95_ms"] = percentile(e.recoveryMS, 0.95)
	}
	if e.migrateEvery > 0 {
		mig := e.migration
		o.Migration = &mig
	}

	if ms := r.Latency["elapsed_ms"].(float64); ms > 0 {
		r.Latency["ops_per_sec"] = float64(t.Ops) / (ms / 1e3)
	}
	if len(e.topo.members) == 1 {
		// Estimated from the broker's histogram by linear interpolation
		// within fixed buckets.
		admit := first.Obs.Histogram("gqosm_broker_admission_seconds",
			"RequestService latency (discovery, admission, reservation)", nil)
		r.Latency["admit_p50_ms"] = admit.Quantile(0.50) * 1e3
		r.Latency["admit_p95_ms"] = admit.Quantile(0.95) * 1e3
		r.Latency["admit_p99_ms"] = admit.Quantile(0.99) * 1e3
		r.Latency["admit_samples"] = admit.Count()
	}
	return r
}
