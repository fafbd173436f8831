package sim

import (
	"container/heap"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"gqosm/internal/clockx"
	"gqosm/internal/core"
	"gqosm/internal/pricing"
	"gqosm/internal/resource"
	"gqosm/internal/sla"
	"gqosm/internal/stack"
)

// This file is the scenario workload: a library of named traffic shapes
// (see scenarios.go) replayed against a single broker by the engine, one
// arrival per step. Scenarios follow the engine's determinism rules — one
// manual clock, serial client behavior, seeded PRNG streams with fixed
// draw order — so a (scenario, seed, ops) tuple produces a
// byte-identical report.

// OfferAction is a scenario client's reaction to a negotiated offer.
type OfferAction int

const (
	// OfferAccept confirms the offer immediately (the default).
	OfferAccept OfferAction = iota
	// OfferReject declines the offer explicitly.
	OfferReject
	// OfferAbandon walks away: the offer rides until the confirm window
	// expires it.
	OfferAbandon
	// OfferAcceptAtExpiry moves the clock to the offer's exact expiry
	// instant and only then tries to confirm — the lease-churn abuse.
	// The confirm timer fires during the clock move, so the accept
	// deterministically loses the race; the scenario asserts the broker
	// survives it cleanly.
	OfferAcceptAtExpiry
)

// Scenario is one named traffic shape plus the client behavior and
// assertions that give it teeth. Hooks are optional except Workload;
// nil hooks fall back to plain accept-and-hold clients.
type Scenario struct {
	Name  string
	About string
	// ConfirmWindow overrides the cluster's offer window (default 2m).
	ConfirmWindow time.Duration
	// Plan is the broker's partition; zero uses DefaultParallelPlan.
	Plan core.CapacityPlan
	// Workload builds the trace generator, sized so the run performs
	// roughly cfg.Ops broker operations (~3 per negotiated arrival).
	// The driver forces Seed to cfg.Seed.
	Workload func(cfg ScenarioConfig) Workload
	// Shape rewrites arrival i after generation; rng is a dedicated
	// shaping stream (cfg.Seed+1) so trace and shape draws never
	// interleave.
	Shape func(cfg ScenarioConfig, rng *rand.Rand, i int, a Arrival) Arrival
	// Request builds the negotiation request for arrival i; nil uses
	// ScenarioRun.DefaultRequest. Not consulted for best-effort
	// arrivals, which go through the BestEffortRequest path.
	Request func(run *ScenarioRun, i int, a Arrival) core.Request
	// OnOffer picks the client's reaction to an offer; nil accepts.
	OnOffer func(run *ScenarioRun, i int, a Arrival, offer *core.Offer) OfferAction
	// AfterArrival runs after arrival i resolved (admitted reports the
	// outcome; id is empty for best-effort and failed arrivals) — the
	// place for renegotiations and other follow-on client behavior.
	AfterArrival func(run *ScenarioRun, i int, a Arrival, id sla.ID, admitted bool)
	// OnClock runs before each move of the driver's clock to `to`, while
	// the broker still holds the state of the interval the move ends — the
	// place to sample that state and to inject events timed inside it.
	OnClock func(run *ScenarioRun, to time.Time)
	// Verify asserts scenario-specific outcome properties after the
	// drain; a non-nil error lands in the oracle's details and fails the
	// report's verified gate.
	Verify func(o *Outcome) error
}

// ScenarioConfig sizes a scenario run.
type ScenarioConfig struct {
	// Seed drives every PRNG stream in the run.
	Seed int64
	// Ops targets the number of broker operations (default 6000).
	Ops int
}

// scenarioPhases is the number of mid-run quiesce points of a scenario run.
const scenarioPhases = 10

func (cfg ScenarioConfig) withDefaults() ScenarioConfig {
	orDefault(&cfg.Ops, 6000)
	return cfg
}

// departure is a scheduled session end (or best-effort release).
type departure struct {
	at     time.Time
	seq    int // creation order, the deterministic tie-break
	id     sla.ID
	client string // best-effort departures release by client
}

type departureHeap []departure

func (h departureHeap) Len() int { return len(h) }
func (h departureHeap) Less(i, j int) bool {
	if !h[i].at.Equal(h[j].at) {
		return h[i].at.Before(h[j].at)
	}
	return h[i].seq < h[j].seq
}
func (h departureHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *departureHeap) Push(x any)   { *h = append(*h, x.(departure)) }
func (h *departureHeap) Pop() any     { old := *h; n := len(old); d := old[n-1]; *h = old[:n-1]; return d }

// ScenarioRun is the driver state a scenario's hooks see.
type ScenarioRun struct {
	Cfg     ScenarioConfig
	Cluster *Cluster
	Clock   *clockx.Manual
	// RNG is the client-behavior stream (cfg.Seed+2), drawn only by
	// hooks — never by the driver — so a scenario's draws stay stable
	// when the driver changes.
	RNG *rand.Rand
	// Accounts are per-tenant budgets for economic scenarios; hooks
	// create entries on first use via Account.
	Accounts map[string]*pricing.Account

	sc     Scenario
	engine *engine
	config map[string]any
	// out accumulates the workload's counters as the trace replays.
	out        Tally
	counts     ScenarioTally
	trace      []Arrival
	drainUntil time.Time
	departures departureHeap
	depSeq     int
	// live holds negotiated sessions believed active, for hooks that
	// pick renegotiation targets; lazily compacted.
	live []sla.ID
}

// Account returns the named tenant's budget account, creating it with
// the given limit on first use.
func (run *ScenarioRun) Account(tenant string, limit float64) *pricing.Account {
	if a, ok := run.Accounts[tenant]; ok {
		return a
	}
	a := pricing.NewAccount(limit)
	run.Accounts[tenant] = a
	return a
}

// Extra adds v to the named deterministic gauge.
func (run *ScenarioRun) Extra(key string, v float64) {
	if run.counts.Extras == nil {
		run.counts.Extras = make(map[string]float64)
	}
	run.counts.Extras[key] += v
}

// op counts one broker API call.
func (run *ScenarioRun) op() { run.out.Ops++ }

// LiveSessions returns the compacted list of sessions still active —
// the pool renegotiation hooks draw targets from.
func (run *ScenarioRun) LiveSessions() []sla.ID {
	kept := run.live[:0]
	for _, id := range run.live {
		if doc, err := run.Cluster.Broker.Session(id); err == nil && !doc.State.Terminal() {
			kept = append(kept, id)
		}
	}
	run.live = kept
	return run.live
}

// DefaultRequest is the stock request for an arrival: guaranteed
// arrivals ask exact capacity, controlled-load arrivals a [half, full]
// range with the arrival's willingness flags.
func (run *ScenarioRun) DefaultRequest(i int, a Arrival) core.Request {
	now := run.Clock.Now()
	req := core.Request{
		Service: "simulation",
		Client:  fmt.Sprintf("tenant-%02d", i%8),
		Class:   a.Class,
		Start:   now,
		End:     now.Add(a.Hold),
	}
	switch a.Class {
	case sla.ClassControlledLoad:
		floor := math.Max(1, math.Floor(a.Nodes/2))
		req.Spec = sla.NewSpec(sla.Range(resource.CPU, floor, a.Nodes))
		req.AcceptDegradation = a.Willing
		req.PromotionOptIn = a.Willing
	default:
		req.Spec = sla.NewSpec(sla.Exact(resource.CPU, a.Nodes))
		req.AcceptDegradation = a.Willing
	}
	return req
}

// Scenarios returns the built-in library, sorted by name.
func Scenarios() []Scenario {
	out := append([]Scenario(nil), builtinScenarios...)
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// LookupScenario finds a built-in scenario by name.
func LookupScenario(name string) (Scenario, bool) {
	for _, sc := range builtinScenarios {
		if sc.Name == name {
			return sc, true
		}
	}
	return Scenario{}, false
}

// RunScenario replays one scenario and returns its report. A non-nil
// error means the harness itself failed; oracle violations and scenario
// assertion failures land in the report so CI always has one to gate on.
func RunScenario(sc Scenario, cfg ScenarioConfig) (*Report, error) {
	run, err := newScenarioRun(sc, cfg, scenarioPhases)
	if err != nil {
		return nil, err
	}
	defer run.engine.topo.close()
	rep, err := run.play()
	if err != nil {
		return nil, err
	}
	return rep.Seal(), nil
}

// newScenarioRun generates the scenario's trace and assembles the engine
// that will replay it: one arrival per step, the oracle (with the
// expiry-boundary rules) at every phase barrier.
func newScenarioRun(sc Scenario, cfg ScenarioConfig, phases int) (*ScenarioRun, error) {
	cfg = cfg.withDefaults()
	wl := sc.Workload(cfg)
	wl.Seed = cfg.Seed
	trace := wl.Trace()
	if len(trace) == 0 {
		return nil, fmt.Errorf("sim: scenario %q generated an empty trace", sc.Name)
	}
	if sc.Shape != nil {
		shapeRNG := rand.New(rand.NewSource(cfg.Seed + 1))
		for i := range trace {
			trace[i] = sc.Shape(cfg, shapeRNG, i, trace[i])
		}
	}
	confirm := sc.ConfirmWindow
	if confirm <= 0 {
		confirm = 2 * time.Minute
	}
	plan := sc.Plan
	if plan == (core.CapacityPlan{}) {
		plan = DefaultParallelPlan()
	}
	topo, err := newTopology(topoConfig{Base: stack.Config{
		Plan:          plan,
		ConfirmWindow: confirm,
	}})
	if err != nil {
		return nil, err
	}
	run := &ScenarioRun{
		Cfg:        cfg,
		Cluster:    topo.members[0],
		Clock:      topo.clock,
		RNG:        rand.New(rand.NewSource(cfg.Seed + 2)),
		Accounts:   make(map[string]*pricing.Account),
		sc:         sc,
		config:     map[string]any{"scenario": sc.Name, "seed": cfg.Seed, "ops": cfg.Ops, "phases": phases},
		counts:     ScenarioTally{Arrivals: len(trace)},
		trace:      trace,
		drainUntil: Epoch.Add(wl.Duration).Add(1000 * time.Hour),
	}
	run.engine = &engine{topo: topo, work: run, steps: len(trace),
		quiesceEvery: max(1, len(trace)/phases), lifecycle: confirm}
	return run, nil
}

// play runs the engine and files the report, unsealed: the scenario's
// own assertions are judged here, a soak adds its verdict on top.
func (run *ScenarioRun) play() (*Report, error) {
	if err := run.engine.run(); err != nil {
		return nil, err
	}
	rep := run.engine.report("scenario", run.config)
	if run.sc.Verify != nil {
		err := run.sc.Verify(&rep.Outcome)
		if rep.Oracle.Gates["verified"] = err == nil; err != nil {
			rep.Oracle.Details = append(rep.Oracle.Details, "verify: "+err.Error())
		}
	}
	return rep, nil
}

func (run *ScenarioRun) tally(o *Outcome) {
	*o.Tally, o.Scenario = run.out, &run.counts
	o.Ops += int64(run.engine.oracle.Checks) // the engine's expiry sweep before each oracle pass
}

// step replays arrival i: run out the departures due before it, move
// the clock to it, and let the client negotiate.
func (run *ScenarioRun) step(i int) {
	a := run.trace[i]
	now := Epoch.Add(a.At)
	run.processDepartures(now)
	run.moveClock(now)
	id, admitted := run.arrive(i, a)
	if run.sc.AfterArrival != nil {
		run.sc.AfterArrival(run, i, a, id, admitted)
	}
}

// drain runs out the departure queue; the engine's drain then expires
// everything else (one more broker call, counted here).
func (run *ScenarioRun) drain() {
	run.processDepartures(run.drainUntil)
	run.op()
}

// moveClock runs the scenario's OnClock hook, then moves the clock.
func (run *ScenarioRun) moveClock(to time.Time) {
	if run.sc.OnClock != nil {
		run.sc.OnClock(run, to)
	}
	run.Clock.Set(to)
}

func (run *ScenarioRun) processDepartures(until time.Time) {
	b := run.Cluster.Broker
	for len(run.departures) > 0 && !run.departures[0].at.After(until) {
		d := heap.Pop(&run.departures).(departure)
		run.moveClock(d.at)
		run.op()
		if d.client != "" {
			_ = b.BestEffortRelease(d.client)
			continue
		}
		if err := b.Terminate(d.id, "hold elapsed"); err == nil {
			run.out.Terminated++
		}
	}
}

// arrive negotiates arrival i and reports how it resolved (id is empty
// for best-effort and failed arrivals).
func (run *ScenarioRun) arrive(i int, a Arrival) (id sla.ID, admitted bool) {
	sc := run.sc
	b := run.Cluster.Broker
	r := &run.out

	if a.Class == sla.ClassBestEffort {
		client := fmt.Sprintf("be-%d", i)
		run.op()
		r.Requested++
		if err := b.BestEffortRequest(client, resource.Nodes(a.Nodes)); err != nil {
			r.Rejected++
			return "", false
		}
		r.Admitted++
		run.depSeq++
		heap.Push(&run.departures, departure{at: run.Clock.Now().Add(a.Hold), seq: run.depSeq, client: client})
		return "", true
	}

	var req core.Request
	if sc.Request != nil {
		req = sc.Request(run, i, a)
	} else {
		req = run.DefaultRequest(i, a)
	}
	run.op()
	r.Requested++
	offer, err := b.RequestService(req)
	if err != nil {
		r.Rejected++
		if errors.Is(err, core.ErrOverBudget) {
			// The broker refused before an offer was even made: the
			// request's budget does not cover the floor price. The
			// economic scenario gates on this counter.
			run.Extra("over_budget_rejects", 1)
		}
		return "", false
	}

	action := OfferAccept
	if sc.OnOffer != nil {
		action = sc.OnOffer(run, i, a, offer)
	}
	id = offer.SLA.ID
	switch action {
	case OfferReject:
		run.op()
		_ = b.Reject(id)
		r.Rejected++
		id = ""
	case OfferAbandon:
		// The confirm timer expires the offer when the clock next moves
		// past the window; count it now — deterministically — rather
		// than reverse-engineering it from broker state later.
		run.counts.ExpiredOffers++
		id = ""
	case OfferAcceptAtExpiry:
		run.moveClock(offer.Expires)
		run.op()
		if err := b.Accept(id); err != nil {
			// The timer fired during the Set: the offer expired a
			// virtual instant before the accept. This is the boundary
			// race the lease-churn scenario exists to hammer.
			run.counts.ExpiredOffers++
			run.Extra("boundary_races", 1)
			id = ""
		} else {
			run.admitted(id, offer.SLA.End)
		}
	default:
		run.op()
		if err := b.Accept(id); err != nil {
			r.Rejected++
			id = ""
		} else {
			run.admitted(id, offer.SLA.End)
		}
	}
	return id, id != ""
}

func (run *ScenarioRun) admitted(id sla.ID, end time.Time) {
	run.out.Admitted++
	run.depSeq++
	heap.Push(&run.departures, departure{at: end, seq: run.depSeq, id: id})
	run.live = append(run.live, id)
}

// Renegotiate is the hook-facing renegotiation wrapper: it counts the
// attempt, the failure and the op.
func (run *ScenarioRun) Renegotiate(id sla.ID, spec sla.Spec) bool {
	run.op()
	run.counts.Renegotiations++
	if _, err := run.Cluster.Broker.Renegotiate(id, spec); err != nil {
		run.counts.RenegFailures++
		return false
	}
	return true
}
