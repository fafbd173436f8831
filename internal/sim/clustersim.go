package sim

// This file is the multi-broker workload and its two engine
// configurations, RunClusterSim and RunHandoffCrash: N independent sim
// Clusters (each its own core.Broker, pool, GARA, GRAM, registry —
// exactly what N aqosd processes would own) behind a cluster.Front,
// driven by one shared manual clock.
//
// RunClusterSim drives O(10⁵) simulated clients through front-tier
// placement with fallback along the ring, forced hand-off migrations, and
// the oracle at a fixed cadence. The per-client outcome sequence is
// digested (admissions and rejections only — migrations are
// cluster-internal rebalancing and excluded), and the digest is
// workload-deterministic AND broker-count-independent: the sliding
// session window keeps demand far enough under cluster capacity that
// every regular admission succeeds somewhere, and every oversized probe
// fails everywhere, so a 3-broker run must reproduce the 1-broker outcome
// sequence exactly. gridsim gates on that N=1 vs N=3 parity.

import (
	"errors"
	"fmt"
	"hash"
	"hash/fnv"
	"math/rand"
	"time"

	"gqosm/internal/cluster"
	"gqosm/internal/core"
	"gqosm/internal/resource"
	"gqosm/internal/sla"
	"gqosm/internal/stack"
)

// ClusterSimConfig sizes a RunClusterSim run.
type ClusterSimConfig struct {
	// Brokers is the number of broker instances (default 3).
	Brokers int
	// Clients is the number of simulated clients; each performs one
	// admission and participates in the sliding live window (default
	// 100000).
	Clients int
	// Seed drives the deterministic request-size schedule.
	Seed int64
}

// The cluster workload's fixed cadences, in clients.
const (
	// clusterWindow is the live-session cap; the oldest session is
	// terminated when an admission would exceed it.
	clusterWindow = 64
	// clusterMigrateEvery forces a hand-off of the oldest live session
	// every that many clients when Brokers > 1.
	clusterMigrateEvery = 512
	// clusterCheckEvery is the oracle cadence.
	clusterCheckEvery = 2048
)

// clusterPlan is the cluster-wide Algorithm-1 partition the multi-broker
// topology splits across members: roomy enough that the sliding window
// (64 sessions × ≤3 CPU) never exhausts the cluster, small enough that
// hash skew overflows single members and exercises the fallback.
func clusterPlan() core.CapacityPlan {
	return core.CapacityPlan{
		Guaranteed: resource.Capacity{CPU: 192, MemoryMB: 98304, DiskGB: 1920},
		Adaptive:   resource.Capacity{CPU: 48, MemoryMB: 24576, DiskGB: 480},
		BestEffort: resource.Capacity{CPU: 24, MemoryMB: 12288, DiskGB: 240},
	}
}

// windowWorkload admits one guaranteed session per step through the
// front tier and keeps at most window of them live, terminating the
// oldest as new ones arrive.
type windowWorkload struct {
	topo   *topology
	rng    *rand.Rand
	record func(stage string, err error)
	// request builds step i's admission. It must draw a fixed number of
	// values from rng per call, so the schedule is identical for every
	// broker count.
	request func(w *windowWorkload, i int) core.Request
	window  int
	// tick is how many admissions share one simulated second.
	tick int

	live   []sla.ID
	digest hash.Hash64

	admitted, rejected, errors, forwarded, terminated int
}

func newWindowWorkload(e *engine, seed int64, window, tick int, request func(*windowWorkload, int) core.Request) *windowWorkload {
	w := &windowWorkload{topo: e.topo, rng: rand.New(rand.NewSource(seed)), record: e.record,
		request: request, window: window, tick: tick, digest: fnv.New64a()}
	e.work, e.victim = w, w.oldest
	return w
}

// guaranteedRequest is the window workloads' common request shape.
func (w *windowWorkload) guaranteedRequest(client string, params ...sla.Param) core.Request {
	now := w.topo.clock.Now()
	return core.Request{
		Service: "simulation",
		Client:  client,
		Class:   sla.ClassGuaranteed,
		Spec:    sla.NewSpec(params...),
		Start:   now,
		End:     now.Add(1000 * time.Hour),
	}
}

func (w *windowWorkload) oldest() sla.ID {
	if len(w.live) == 0 {
		return ""
	}
	return w.live[0]
}

func (w *windowWorkload) outcome(letter byte, counter *int) {
	*counter++
	w.digest.Write([]byte{letter})
}

// terminate ends a live session through the front, recording a failure
// under stage.
func (w *windowWorkload) terminate(id sla.ID, reason, stage string) {
	if err := w.topo.front.Terminate(id, reason); err != nil {
		w.record(stage, err)
		return
	}
	w.terminated++
}

func (w *windowWorkload) tally(o *Outcome) {
	o.Ops = int64(w.admitted + w.rejected + w.errors)
	o.Requested, o.Admitted, o.Rejected, o.Terminated = int(o.Ops), w.admitted, w.rejected, w.terminated
	o.Front = &FrontTally{Errors: w.errors, Forwarded: w.forwarded,
		OutcomeDigest: fmt.Sprintf("%016x", w.digest.Sum64())}
	for _, b := range w.topo.brokers() {
		o.Front.PerBroker = append(o.Front.PerBroker, b.LoadReport())
	}
}

func (w *windowWorkload) step(i int) {
	front := w.topo.front
	offer, err := front.RequestService(w.request(w, i))
	switch {
	case err == nil && front.Accept(offer.SLA.ID) == nil:
		w.outcome('A', &w.admitted)
		if offer.Forwarded {
			w.forwarded++
		}
		w.live = append(w.live, offer.SLA.ID)
		if len(w.live) > w.window {
			oldest := w.live[0]
			w.live = w.live[1:]
			w.terminate(oldest, "window slide", fmt.Sprintf("client %d terminate %s", i, oldest))
		}
	case errors.Is(err, core.ErrNoDomainCanServe):
		// A refusal core.Forwardable accepts reaches the caller only
		// wrapped, once every member declined; anything else is a harness
		// failure.
		w.outcome('R', &w.rejected)
	default:
		w.outcome('E', &w.errors)
	}
	if i%w.tick == w.tick-1 {
		w.topo.clock.Advance(time.Second)
	}
}

func (w *windowWorkload) drain() {
	for _, id := range w.live {
		w.terminate(id, "drain", fmt.Sprintf("drain %s", id))
	}
}

// RunClusterSim drives the workload described in the file comment. A
// non-nil error means the harness itself failed; invariant
// violations are reported in the result for the caller to gate on.
func RunClusterSim(cfg ClusterSimConfig) (*Report, error) {
	orDefault(&cfg.Brokers, 3)
	orDefault(&cfg.Clients, 100000)

	plan := clusterPlan()
	topo, err := newTopology(topoConfig{
		Base:    stack.Config{Plan: plan},
		Brokers: cfg.Brokers,
	})
	if err != nil {
		return nil, err
	}
	defer topo.close()
	e := &engine{topo: topo, steps: cfg.Clients, quiesceEvery: clusterCheckEvery, prune: true}
	if cfg.Brokers > 1 {
		e.migrateEvery = clusterMigrateEvery
	}
	newWindowWorkload(e, cfg.Seed, clusterWindow, 16, func(w *windowWorkload, i int) core.Request {
		r1 := w.rng.Intn(3) + 1 // CPU nodes 1–3
		r2 := w.rng.Intn(4) + 1 // memory/disk scale
		name := fmt.Sprintf("client-%06d", i)
		if i%97 == 96 {
			// Oversized probe: more CPU than the whole cluster owns —
			// must be rejected by every member.
			return w.guaranteedRequest(name, sla.Exact(resource.CPU, plan.Total().CPU+16))
		}
		return w.guaranteedRequest(name,
			sla.Exact(resource.CPU, float64(r1)),
			sla.Exact(resource.MemoryMB, float64(128*r2)),
			sla.Exact(resource.DiskGB, float64(r2)))
	})

	if err := e.run(); err != nil {
		return nil, err
	}
	return e.report("cluster", map[string]any{"brokers": cfg.Brokers, "clients": cfg.Clients,
		"seed": cfg.Seed, "placement": cluster.PlaceHash.String(), "window": clusterWindow}).Seal(), nil
}

// HandoffCrashConfig sizes a RunHandoffCrash run.
type HandoffCrashConfig struct {
	// Brokers is the member count (default 3).
	Brokers int
	// Seed drives the request-size schedule.
	Seed int64
}

// handoffSessions is how many sessions a RunHandoffCrash run admits before
// the forced migration — small enough that even the worst-case request
// schedule fits the cluster's guaranteed partition, since this runner
// never slides a window.
const handoffSessions = 48

// RunHandoffCrash drives the crash interleaving end to end on durable
// brokers: admit, begin hand-off, import on the target, kill the source
// before CompleteHandoff, recover it from its WAL, reconcile via the
// front, and verify the single-owner outcome plus the full oracle after
// a drain.
func RunHandoffCrash(cfg HandoffCrashConfig) (*Report, error) {
	orDefault(&cfg.Brokers, 3)
	topo, err := newTopology(topoConfig{
		Base:    stack.Config{Plan: clusterPlan()},
		Brokers: cfg.Brokers, Durable: true,
	})
	if err != nil {
		return nil, err
	}
	defer topo.close()
	e := &engine{topo: topo, steps: handoffSessions}
	w := newWindowWorkload(e, cfg.Seed, handoffSessions, 8, func(w *windowWorkload, i int) core.Request {
		return w.guaranteedRequest(fmt.Sprintf("hc-client-%03d", i),
			sla.Exact(resource.CPU, float64(w.rng.Intn(3)+1)))
	})

	if err := e.play(); err != nil {
		return nil, err
	}
	if w.admitted != handoffSessions {
		return nil, fmt.Errorf("only %d of %d drill sessions admitted (%d rejected, %d errors)",
			w.admitted, handoffSessions, w.rejected, w.errors)
	}
	// Pick a migration pair: the first live session, toward the next
	// slot. The front is NOT used for the migration itself — the crash
	// must land between ImportSession and CompleteHandoff, a window
	// Front.Migrate does not expose.
	id := w.live[0]
	srcIdx, tgtIdx, ok := topo.nextSlot(id)
	if !ok {
		return nil, fmt.Errorf("no owner recorded for %s", id)
	}
	srcSlot, tgtSlot := topo.front.Slots()[srcIdx], topo.front.Slots()[tgtIdx]
	res := &Handoff{MigratedID: string(id), Source: srcSlot.Domain(), Target: tgtSlot.Domain()}

	st, err := srcSlot.Broker().BeginHandoff(id, tgtSlot.Domain())
	if err != nil {
		return nil, fmt.Errorf("begin handoff: %w", err)
	}
	if err := tgtSlot.Broker().ImportSession(st); err != nil {
		return nil, fmt.Errorf("import: %w", err)
	}

	// The worst crash point: the target committed, the source still
	// thinks it owns the session and holds the journaled out-intent.
	srcSlot.MarkRecovering(true)
	srcSlot.Broker().Crash()
	stats, err := topo.members[srcIdx].RecoverBroker()
	if err != nil {
		return nil, fmt.Errorf("recover: %w", err)
	}
	res.HandoffsResolved = stats.HandoffsResolved
	res.ReplayedRecords = stats.ReplayedRecords
	if err := srcSlot.Swap(topo.members[srcIdx].Broker); err != nil {
		return nil, err
	}
	res.Completed, res.Aborted = topo.front.ReconcileHandoffs()

	for _, b := range topo.brokers() {
		if doc, err := b.Session(id); err == nil && !doc.State.Terminal() {
			res.Owners++
			res.OwnerDomain = b.Domain()
		}
	}
	e.quiesce("post-reconcile", false)

	e.finish()
	rep := e.report("handoff", map[string]any{"brokers": cfg.Brokers, "sessions": handoffSessions, "seed": cfg.Seed})
	rep.Outcome.Handoff = res
	// The acceptance bar: after the source is killed mid-migration (import
	// committed, completion not), recovered, and reconciled, exactly one
	// broker — the target — owns the session.
	rep.Oracle.Gates["single_owner"] = res.Owners == 1 && res.OwnerDomain == res.Target
	return rep.Seal(), nil
}
