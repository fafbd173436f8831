package sim

// This file is the multi-broker workload, RunFederation: N independent
// sim Clusters (each its own core.Broker, pool, GARA, GRAM, registry —
// exactly what N aqosd processes would own) federated the way aqosd -peer
// federates them (Fig. 1's neighboring AQoSs), driven by one shared
// manual clock.
//
// RunFederation drives O(10⁵) simulated clients through the first
// member's core.Federation: each admission asks the home broker, then
// each neighbor in registration order, and the session is accepted and
// terminated on the broker that holds it. The oracle runs at a fixed
// cadence. The per-client outcome sequence is digested (admissions and
// rejections), and the digest is workload-deterministic AND
// broker-count-independent: the sliding session window keeps demand far
// enough under the federation's capacity that every regular admission
// succeeds somewhere, and every oversized probe fails everywhere, so a
// 3-broker run must reproduce the 1-broker outcome sequence exactly.
// gridsim gates on that N=1 vs N=3 parity.

import (
	"errors"
	"fmt"
	"hash"
	"hash/fnv"
	"math/rand"
	"time"

	"gqosm/internal/core"
	"gqosm/internal/resource"
	"gqosm/internal/sla"
	"gqosm/internal/stack"
)

// FederationConfig sizes a RunFederation run.
type FederationConfig struct {
	// Brokers is the number of federated broker instances (default 3).
	Brokers int
	// Clients is the number of simulated clients; each performs one
	// admission and participates in the sliding live window (default
	// 100000).
	Clients int
	// Seed drives the deterministic request-size schedule.
	Seed int64
}

// The federation workload's fixed cadences, in clients.
const (
	// federationWindow is the live-session cap; the oldest session is
	// terminated when an admission would exceed it.
	federationWindow = 64
	// federationTick is how many admissions share one simulated second.
	federationTick = 16
	// federationCheckEvery is the oracle cadence.
	federationCheckEvery = 2048
)

// federationPlan is the federation-wide Algorithm-1 partition the
// multi-broker topology splits across members: roomy enough that the
// sliding window (64 sessions × ≤3 CPU) never exhausts the federation,
// small enough that the home member fills and requests are forwarded.
func federationPlan() core.CapacityPlan {
	return core.CapacityPlan{
		Guaranteed: resource.Capacity{CPU: 192, MemoryMB: 98304, DiskGB: 1920},
		Adaptive:   resource.Capacity{CPU: 48, MemoryMB: 24576, DiskGB: 480},
		BestEffort: resource.Capacity{CPU: 24, MemoryMB: 12288, DiskGB: 240},
	}
}

// held is a live session and the member broker that holds it.
type held struct {
	id     sla.ID
	broker *core.Broker
}

// windowWorkload admits one guaranteed session per step through the
// federation and keeps at most federationWindow of them live,
// terminating the oldest as new ones arrive.
type windowWorkload struct {
	topo   *topology
	rng    *rand.Rand
	record func(stage string, err error)

	live   []held
	digest hash.Hash64

	admitted, rejected, errors, forwarded, terminated int
}

// request builds client i's admission. It draws the same two values from
// rng on every call, so the schedule is identical for every broker count.
func (w *windowWorkload) request(i int) core.Request {
	r1 := w.rng.Intn(3) + 1 // CPU nodes 1–3
	r2 := w.rng.Intn(4) + 1 // memory/disk scale
	spec := sla.NewSpec(
		sla.Exact(resource.CPU, float64(r1)),
		sla.Exact(resource.MemoryMB, float64(128*r2)),
		sla.Exact(resource.DiskGB, float64(r2)))
	if i%97 == 96 {
		// Oversized probe: more CPU than the whole federation owns — must
		// be rejected by every member.
		spec = sla.NewSpec(sla.Exact(resource.CPU, federationPlan().Total().CPU+16))
	}
	now := w.topo.clock.Now()
	return core.Request{
		Service: "simulation",
		Client:  fmt.Sprintf("client-%06d", i),
		Class:   sla.ClassGuaranteed,
		Spec:    spec,
		Start:   now,
		End:     now.Add(1000 * time.Hour),
	}
}

func (w *windowWorkload) outcome(letter byte, counter *int) {
	*counter++
	w.digest.Write([]byte{letter})
}

// terminate ends a live session on the broker that holds it, recording a
// failure under stage.
func (w *windowWorkload) terminate(s held, reason, stage string) {
	if err := s.broker.Terminate(s.id, reason); err != nil {
		w.record(stage, err)
		return
	}
	w.terminated++
}

func (w *windowWorkload) tally(o *Outcome) {
	o.Ops = int64(w.admitted + w.rejected + w.errors)
	o.Requested, o.Admitted, o.Rejected, o.Terminated = int(o.Ops), w.admitted, w.rejected, w.terminated
	o.Federation = &FederationTally{Errors: w.errors, Forwarded: w.forwarded,
		OutcomeDigest: fmt.Sprintf("%016x", w.digest.Sum64())}
	for _, b := range w.topo.brokers() {
		o.Federation.PerBroker = append(o.Federation.PerBroker, b.LoadReport())
	}
}

func (w *windowWorkload) step(i int) {
	offer, err := w.topo.fed.RequestService(w.request(i))
	var holder *core.Broker
	if err == nil {
		holder = w.topo.member(offer.Domain)
	}
	switch {
	case holder != nil && holder.Accept(offer.SLA.ID) == nil:
		w.outcome('A', &w.admitted)
		if offer.Forwarded {
			w.forwarded++
		}
		w.live = append(w.live, held{offer.SLA.ID, holder})
		if len(w.live) > federationWindow {
			oldest := w.live[0]
			w.live = w.live[1:]
			w.terminate(oldest, "window slide", fmt.Sprintf("client %d terminate %s", i, oldest.id))
		}
	case errors.Is(err, core.ErrNoDomainCanServe):
		// A refusal core.Forwardable accepts reaches the caller only
		// wrapped, once every member declined; anything else is a harness
		// failure.
		w.outcome('R', &w.rejected)
	default:
		w.outcome('E', &w.errors)
	}
	if i%federationTick == federationTick-1 {
		w.topo.clock.Advance(time.Second)
	}
}

func (w *windowWorkload) drain() {
	for _, s := range w.live {
		w.terminate(s, "drain", fmt.Sprintf("drain %s", s.id))
	}
}

// RunFederation drives the workload described in the file comment. A
// non-nil error means the harness itself failed; invariant violations
// are reported in the result for the caller to gate on.
func RunFederation(cfg FederationConfig) (*Report, error) {
	return runFederation(cfg, false)
}

// runFederation is RunFederation with the neighbors reached in-process
// (wirePeers false) or over loopback SOAP (true, topoConfig.wirePeers).
func runFederation(cfg FederationConfig, wirePeers bool) (*Report, error) {
	orDefault(&cfg.Brokers, 3)
	orDefault(&cfg.Clients, 100000)

	topo, err := newTopology(topoConfig{
		Base:      stack.Config{Plan: federationPlan()},
		Brokers:   cfg.Brokers,
		wirePeers: wirePeers,
	})
	if err != nil {
		return nil, err
	}
	defer topo.close()
	e := &engine{topo: topo, steps: cfg.Clients, quiesceEvery: federationCheckEvery, prune: true}
	e.work = &windowWorkload{topo: topo, rng: rand.New(rand.NewSource(cfg.Seed)), record: e.record, digest: fnv.New64a()}

	if err := e.run(); err != nil {
		return nil, err
	}
	return e.report("federation", map[string]any{"brokers": cfg.Brokers, "clients": cfg.Clients,
		"seed": cfg.Seed, "window": federationWindow}).Seal(), nil
}
