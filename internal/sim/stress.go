package sim

import (
	"encoding/json"
	"math/rand"
	"sort"
	"strconv"
	"sync"
	"time"

	"gqosm/internal/core"
	"gqosm/internal/httpapi"
	"gqosm/internal/obs"
	"gqosm/internal/pricing"
	"gqosm/internal/resource"
	"gqosm/internal/sla"
	"gqosm/internal/stack"
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
//     Deterministic too; the wall-clock recovery time sits under the
//     report's latency key like every other clock reading.

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

// RunParallel executes the concurrent lifecycle stress: throughput and
// admission latency under goroutine clients. A non-nil error means the
// harness itself failed; oracle violations, and capacity lost or
// double-spent by the end, land in the report for the caller to gate on.
func RunParallel(cfg StressConfig) (*Report, error) { return runStress("parallel", cfg, true, false) }

// RunChaos replays the stress workload serially under seeded fault
// injection and returns the deterministic report.
func RunChaos(cfg StressConfig) (*Report, error) { return runStress("chaos", cfg, false, false) }

// RunRestartChaos replays the chaos workload against a durable broker,
// killing and recovering it cfg.Restarts times.
func RunRestartChaos(cfg StressConfig) (*Report, error) {
	return runStress("restart-chaos", cfg, false, true)
}

// runStress assembles the stress workload on a single-broker topology
// and runs it. concurrent runs the clients as goroutines between phase
// barriers; restart makes the broker durable and kills it cfg.Restarts
// times.
func runStress(mode string, cfg StressConfig, concurrent, restart bool) (*Report, error) {
	cfg = cfg.withDefaults()
	config := map[string]any{"seed": cfg.Seed, "clients": cfg.Clients, "ops": cfg.Ops, "phases": cfg.Phases,
		"shards": cfg.Shards, "fault_rate": cfg.FaultRate, "intake": cfg.Intake, "transport": cfg.Transport,
		"policy": cfg.Policy}
	kills := 0
	if restart {
		kills = cfg.Restarts
		delete(config, "phases")
		config["restarts"] = kills
	}
	topo, err := newTopology(topoConfig{
		Base: stack.Config{
			Plan: DefaultParallelPlan(), Shards: cfg.Shards, Obs: cfg.Obs,
			DisableCaches: cfg.DisableCaches,
			Intake:        core.IntakeConfig{Enabled: cfg.Intake},
			Policy:        cfg.Policy,
			WALDir:        cfg.WALDir,
		},
		FaultRate: cfg.FaultRate,
		Seed:      cfg.Seed,
		Durable:   restart,
		Transport: cfg.Transport,
	})
	if err != nil {
		return nil, err
	}
	defer topo.close()
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
	e := &engine{topo: topo, work: w, kills: kills}
	perPhase := max(1, cfg.Ops/(cfg.Clients*cfg.Phases))
	switch {
	case restart:
		e.steps = max(kills+1, cfg.Ops/cfg.Clients)
	case concurrent:
		w.burst, e.steps, e.quiesceEvery = perPhase, cfg.Phases, 1
	default:
		e.steps, e.quiesceEvery = perPhase*cfg.Phases, perPhase
	}
	w.ops = e.steps * cfg.Clients * max(1, w.burst)
	if err := e.run(); err != nil {
		return nil, err
	}
	return e.report(mode, config).Seal(), nil
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

func (w *stressWorkload) tally(o *Outcome) {
	o.Ops = int64(w.ops)
	for _, cl := range w.clients {
		o.Requested += cl.requested
		o.Admitted += cl.admitted
		o.Rejected += cl.rejected
		o.Terminated += cl.terminated
	}
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

	// rejected counts requests the broker refused; the others successful
	// lifecycle transitions.
	requested, admitted, rejected, terminated int
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
		} else {
			c.rejected++
		}
		return
	}
	if c.queued {
		if t, err := b.Submit(req); err == nil {
			c.tickets = append(c.tickets, t)
		} else {
			c.rejected++
		}
	} else if offer, err := b.RequestService(req); err == nil {
		c.proposed = append(c.proposed, offer.SLA.ID)
	} else {
		c.rejected++
	}
}

// resolveTickets collects this client's queued admission outcomes after
// the workload's FlushIntake. Submission order is preserved, so the
// proposed list grows deterministically.
func (c *parClient) resolveTickets() {
	for _, t := range c.tickets {
		if offer, err := t.Wait(); err == nil {
			c.proposed = append(c.proposed, offer.SLA.ID)
		} else {
			c.rejected++
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
