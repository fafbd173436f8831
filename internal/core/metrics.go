package core

import (
	"gqosm/internal/obs"
	"gqosm/internal/resource"
	"gqosm/internal/sla"
)

// brokerMetrics holds the broker's obs handles. Handles are nil-safe,
// so a zero brokerMetrics (broker built without a registry) costs one
// nil check per event and nothing else.
type brokerMetrics struct {
	// Latency histograms for the three operations with multi-component
	// critical paths (discovery → allocator → GARA → timers), timed on the
	// injected clock: real time under aqosd, virtual time in a simulation.
	admitSeconds    *obs.Histogram
	renegSeconds    *obs.Histogram
	teardownSeconds *obs.Histogram

	// lifecycle counts every SLA state event by kind.
	requests      *obs.Counter
	requestErrors *obs.Counter
	accepted      *obs.Counter
	rejected      *obs.Counter
	degraded      *obs.Counter
	promoted      *obs.Counter
	expired       *obs.Counter
	terminated    *obs.Counter
	restored      *obs.Counter
	// restoreAttempts counts scenario-2a tries, refused ones included.
	restoreAttempts *obs.Counter
	violations      *obs.Counter
	failures        *obs.Counter
	compensations   *obs.Counter

	optimizerRuns    *obs.Counter
	optimizerSolves  *obs.Counter
	optimizerApplied *obs.Counter

	// Cluster hand-off traffic (see handoff.go): sessions drained out,
	// imported in, and migrations completed on the source side.
	handoffsOut  *obs.Counter
	handoffsIn   *obs.Counter
	handoffsDone *obs.Counter

	monitorTicks  *obs.Counter
	monitorPanics *obs.Counter

	// Durability layer (see durable.go): journaled records, snapshots
	// landed, appends that failed and sealed the durable history.
	walRecords   *obs.Counter
	walSnapshots *obs.Counter
	walFailures  *obs.Counter
}

func newBrokerMetrics(reg *obs.Registry) brokerMetrics {
	lifecycle := func(event string) *obs.Counter {
		return reg.Counter("gqosm_broker_lifecycle_total",
			"SLA lifecycle events by kind", "event", event)
	}
	return brokerMetrics{
		admitSeconds: reg.Histogram("gqosm_broker_admission_seconds",
			"RequestService latency (discovery, admission, reservation)", nil),
		renegSeconds: reg.Histogram("gqosm_broker_renegotiation_seconds",
			"Renegotiate latency", nil),
		teardownSeconds: reg.Histogram("gqosm_broker_teardown_seconds",
			"Session teardown latency (release, unbind, cancel)", nil),

		requests:      lifecycle("request"),
		requestErrors: lifecycle("request_error"),
		accepted:      lifecycle("accept"),
		rejected:      lifecycle("reject"),
		degraded:      lifecycle("degrade"),
		promoted:      lifecycle("promote"),
		expired:       lifecycle("expire"),
		terminated:    lifecycle("terminate"),
		restored:      lifecycle("restore"),
		violations:    lifecycle("violation"),
		failures:      lifecycle("failure"),
		compensations: lifecycle("compensate"),

		restoreAttempts: reg.Counter("gqosm_broker_restore_attempts_total",
			"Scenario-2a restore attempts, refused ones included"),

		handoffsOut:  lifecycle("handoff_out"),
		handoffsIn:   lifecycle("handoff_in"),
		handoffsDone: lifecycle("handoff_done"),

		optimizerRuns: reg.Counter("gqosm_broker_optimizer_runs_total",
			"Section 5.3 optimizer executions"),
		optimizerSolves: reg.Counter("gqosm_broker_optimizer_solves_total",
			"Optimizer runs that solved the problem: the rest had no session to consider or provably nothing to gain"),
		optimizerApplied: reg.Counter("gqosm_broker_optimizer_applied_total",
			"Optimizer runs whose reallocation cleared the gain threshold"),

		monitorTicks: reg.Counter("gqosm_monitor_ticks_total",
			"Periodic management loop ticks"),
		monitorPanics: reg.Counter("gqosm_monitor_panics_total",
			"Panics recovered inside the monitor tick"),

		walRecords: reg.Counter("gqosm_wal_records_total",
			"Lifecycle records journaled to the write-ahead log"),
		walSnapshots: reg.Counter("gqosm_wal_snapshots_total",
			"Snapshots landed in the write-ahead log"),
		walFailures: reg.Counter("gqosm_wal_append_failures_total",
			"WAL appends that failed and sealed the durable history"),
	}
}

// registerGauges mounts the scrape-time callback gauges: per-partition
// utilization from one row of the Algorithm-1 allocator's Snapshot, and
// session counts by SLA state. Callbacks take the allocator's lock or b.mu
// only at scrape time, so the hot path pays nothing.
func (b *Broker) registerGauges(reg *obs.Registry) {
	for poolIdx, pool := range []string{"guaranteed", "adaptive", "besteffort"} {
		for _, kind := range resource.Kinds {
			poolIdx, kind := poolIdx, kind
			reg.GaugeFunc("gqosm_partition_utilization",
				"Used fraction of each partition pool per resource dimension",
				func() float64 { return b.partitionUtilization(poolIdx, kind) },
				"pool", pool, "dim", kind.String())
		}
	}
	for _, state := range []sla.State{
		sla.StateProposed, sla.StateEstablished, sla.StateActive,
		sla.StateDegraded, sla.StateViolated, sla.StateTerminated,
		sla.StateExpired,
	} {
		state := state
		reg.GaugeFunc("gqosm_broker_sessions",
			"Broker sessions by SLA state",
			func() float64 {
				n := 0
				b.mu.Lock()
				for _, s := range b.sessions {
					if s.doc.State == state {
						n++
					}
				}
				b.mu.Unlock()
				return float64(n)
			},
			"state", state.String())
	}
}

// partitionUtilization is the used fraction of dimension kind in Snapshot
// row pool, 0 when the row has no online capacity there. It allocates
// nothing.
func (b *Broker) partitionUtilization(pool int, kind resource.Kind) float64 {
	u := b.alloc.pool(pool)
	total := u.Capacity.Get(kind) - u.Offline.Get(kind)
	used := u.Guaranteed.Get(kind) + u.BestEffort.Get(kind)
	if total <= resource.Epsilon {
		return 0
	}
	return used / total
}

// Obs returns the broker's metrics registry (never nil; a private
// registry is created when Config.Obs is unset).
func (b *Broker) Obs() *obs.Registry { return b.obs }
