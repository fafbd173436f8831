package sim

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"time"

	"gqosm/internal/clockx"
	"gqosm/internal/core"
	"gqosm/internal/pricing"
	"gqosm/internal/resource"
	"gqosm/internal/sla"
	"gqosm/internal/stack"
)

// This file implements the claim experiments C1–C5 of DESIGN.md §4: each
// quantitative claim the paper makes about the adaptation scheme, measured
// against a baseline.

// paperPlan is the §5.6 partition scaled to the experiment's total.
func paperPlan(totalNodes float64) core.CapacityPlan {
	return core.CapacityPlan{
		Guaranteed: resource.Nodes(totalNodes * 15 / 26),
		Adaptive:   resource.Nodes(totalNodes * 6 / 26),
		BestEffort: resource.Nodes(totalNodes * 5 / 26),
	}
}

// RunC1 sweeps the arrival rate and compares the adaptive scheme against
// the rigid-partition baseline on identical traces — the §5.4 claim
// "resources are never under-utilized due to the dynamic property of the
// algorithm". Each rate is one broker replay (scenario c1-rate-NN); the
// reference model's figures for the same trace ride along as its
// static_* gauges. Gate c1_never_worse: the broker's utilisation and
// admission stay within 0.01 of the static ones at every rate, and its
// utilisation is strictly above at the last (heaviest) rate.
func RunC1(seed int64, rates []float64) (*Report, error) {
	if len(rates) == 0 {
		rates = []float64{2, 4, 8, 16, 32}
	}
	runs := map[string]*Report{}
	var details []string
	for i, rate := range rates {
		wl := Workload{Seed: seed, ArrivalPerHour: rate, Duration: 72 * time.Hour,
			GuaranteedFrac: 0.3, ControlledFrac: 0.2, MeanHoldHours: 3, MaxNodes: 8}
		name := fmt.Sprintf("c1-rate-%02g", rate)
		rep, err := ReplayClaim(name, wl, paperPlan(26), nil)
		if err != nil {
			return nil, err
		}
		static := Replay(wl.Trace(), NewStaticPolicy(paperPlan(26)))
		g := rep.Outcome.Scenario.Extras
		g["static_utilization"], g["static_admit_rate"] = static.MeanUtilization, static.AdmissionRate()
		runs[name] = rep.Seal()
		util, admit := g["utilization"], rep.Outcome.AdmitRate
		if util < g["static_utilization"]-0.01 {
			details = append(details, fmt.Sprintf("λ=%g: adaptive utilization %.3f below static %.3f", rate, util, g["static_utilization"]))
		}
		if admit < g["static_admit_rate"]-0.01 {
			details = append(details, fmt.Sprintf("λ=%g: adaptive admission %.3f below static %.3f", rate, admit, g["static_admit_rate"]))
		}
		// Under the heaviest load the dynamic borrowing must show a strict win.
		if i == len(rates)-1 && util <= g["static_utilization"] {
			details = append(details, fmt.Sprintf("heavy load λ=%g: adaptive %.3f not above static %.3f", rate, util, g["static_utilization"]))
		}
	}
	return claimReport(map[string]any{"experiment": "C1", "seed": seed, "rates": rates}, runs, "c1_never_worse", details), nil
}

// RunC2 sweeps the failure rate: the adaptive plan sizes C_A to the
// administrator's expected failure rate ("the algorithm reserves an
// 'adaptive capacity', based on the specified rate of resource failure or
// congestion"); the baseline spends that capacity on a bigger C_G instead.
// Each arm is one broker replay (scenario c2-fF-reserve / -no-reserve)
// whose outages go through Broker.NotifyFailure. Gate c2_reserve_wins:
// the reserve never breaks more guarantees than the baseline, and at the
// last (highest) rate the baseline breaks some and the reserve fewer.
func RunC2(seed int64, failureRates []float64) (*Report, error) {
	if len(failureRates) == 0 {
		failureRates = []float64{0.05, 0.1, 0.2, 0.3}
	}
	const totalNodes = 40.0
	runs := map[string]*Report{}
	var details []string
	for i, f := range failureRates {
		wl := Workload{Seed: seed, ArrivalPerHour: 10, Duration: 96 * time.Hour,
			GuaranteedFrac: 0.6, MeanHoldHours: 4, MaxNodes: 6}
		// One failure every ~12 hours taking f×total offline for 2h.
		rng := rand.New(rand.NewSource(seed + int64(f*1000)))
		var outages []Outage
		for at := time.Duration(0); at < wl.Duration; at += time.Duration(8+rng.Intn(8)) * time.Hour {
			outages = append(outages,
				Outage{At: at + time.Hour, Offline: resource.Nodes(totalNodes * f)},
				Outage{At: at + 3*time.Hour})
		}

		planAdaptive, err := core.PlanForFailureRate(resource.Nodes(totalNodes), f, 0.1)
		if err != nil {
			return nil, err
		}
		planNoReserve := core.CapacityPlan{
			Guaranteed: planAdaptive.Guaranteed.Add(planAdaptive.Adaptive),
			BestEffort: planAdaptive.BestEffort,
		}
		broken := map[string]float64{}
		for _, arm := range []struct {
			name string
			plan core.CapacityPlan
		}{{"reserve", planAdaptive}, {"no-reserve", planNoReserve}} {
			name := fmt.Sprintf("c2-f%g-%s", f, arm.name)
			rep, err := ReplayClaim(name, wl, arm.plan, outages)
			if err != nil {
				return nil, err
			}
			runs[name] = rep
			broken[arm.name] = rep.Outcome.Scenario.Extras["broken_guarantees"]
		}
		if broken["reserve"] > broken["no-reserve"] {
			details = append(details, fmt.Sprintf("f=%g: adaptive broke %g > no-reserve %g", f, broken["reserve"], broken["no-reserve"]))
		}
		// At the highest failure rate the reserve must show a strict win.
		if i == len(failureRates)-1 {
			if broken["no-reserve"] == 0 {
				details = append(details, fmt.Sprintf("f=%g: baseline never broke a guarantee; failure injection ineffective", f))
			} else if broken["reserve"] >= broken["no-reserve"] {
				details = append(details, fmt.Sprintf("f=%g: adaptive %g not better than baseline %g", f, broken["reserve"], broken["no-reserve"]))
			}
		}
	}
	return claimReport(map[string]any{"experiment": "C2", "seed": seed, "failure_rates": failureRates}, runs, "c2_reserve_wins", details), nil
}

// Outage is one step of a claim replay's capacity schedule: from At on,
// Offline capacity is inaccessible (zero is the recovery).
type Outage struct {
	At      time.Duration // offset from the trace start
	Offline resource.Capacity
}

// claimMeter is what a C1/C2 replay carries on the broker. At every clock
// move it integrates the CPU utilisation of the interval the move ends —
// Replay's sampling rule, so the rigid-partition reference compares like
// with like — and applies the outages timed inside that interval through
// Broker.NotifyFailure. A failure breaks a guarantee when the allocator's
// coverage, the factor SLA-Verif scales every measurement by, drops
// below 1.
type claimMeter struct {
	outages []Outage
	next    int // outages[next] is the first not yet applied
	last    time.Time
	area    float64 // ∫ utilisation dt, in hours
	broken  int
}

func (m *claimMeter) onClock(run *ScenarioRun, to time.Time) {
	b := run.Cluster.Broker
	for ; m.next < len(m.outages); m.next++ {
		o := m.outages[m.next]
		at := Epoch.Add(o.At)
		if at.After(to) {
			break
		}
		m.sample(b, at)
		run.Clock.Set(at)
		b.NotifyFailure(o.Offline)
		if !b.Allocator().Coverage().Equal(resource.Capacity{CPU: 1, MemoryMB: 1, DiskGB: 1, BandwidthMbps: 1}) {
			m.broken++
		}
	}
	m.sample(b, to)
}

func (m *claimMeter) sample(b *core.Broker, to time.Time) {
	if dt := to.Sub(m.last).Hours(); dt > 0 {
		m.area += dt * math.Min(1, b.Allocator().Utilization().CPU)
		m.last = to
	}
}

// ReplayClaim replays wl's trace on a broker over plan as scenario name,
// with the outages (in time order) applied, and files the meter's
// figures as the run's gauges: utilization, the time-weighted mean CPU
// utilisation up to the last arrival or departure, and
// broken_guarantees. Outages after that are never applied: no session
// is left to break.
func ReplayClaim(name string, wl Workload, plan core.CapacityPlan, outages []Outage) (*Report, error) {
	m := &claimMeter{outages: outages, last: Epoch}
	sc := Scenario{
		Name:     name,
		Plan:     plan,
		Workload: func(ScenarioConfig) Workload { return wl },
		OnClock:  m.onClock,
	}
	run, err := newScenarioRun(sc, ScenarioConfig{Seed: wl.Seed}, scenarioPhases)
	if err != nil {
		return nil, err
	}
	defer run.engine.topo.close()
	delete(run.config, "ops") // the workload fixes its own size
	rep, err := run.play()
	if err != nil {
		return nil, err
	}
	run.Extra("utilization", m.area/m.last.Sub(Epoch).Hours()) // the trace is never empty
	run.Extra("broken_guarantees", float64(m.broken))
	return rep.Seal(), nil
}

// RunC3 saturates the guaranteed side and checks the §5.4 claim "a minimum
// resource capacity is allocated for 'best effort' users, therefore users
// with no SLAs can always make use of the 'best effort' resources": at
// each standing guaranteed load, 200 best-effort requests of at most
// C_B = 5 nodes, each released before the next. Gate c3_floor_honored:
// every one of them is admitted at every load.
func RunC3(seed int64) (*Report, error) {
	runs := map[string]*Report{}
	var details []string
	for _, gLoad := range []float64{0, 8, 12, 15} {
		rep, err := runC3Once(seed, gLoad)
		if err != nil {
			return nil, err
		}
		name := fmt.Sprintf("c3-g-load-%02g", gLoad)
		runs[name] = rep
		if t := rep.Outcome.Tally; t.Admitted != t.Requested {
			details = append(details, fmt.Sprintf("g-load %g: best-effort floor violated (%d/%d admitted)", gLoad, t.Admitted, t.Requested))
		}
	}
	return claimReport(map[string]any{"experiment": "C3", "seed": seed}, runs, "c3_floor_honored", details), nil
}

// establish negotiates req and accepts the offer.
func establish(b *core.Broker, req core.Request) (sla.ID, error) {
	offer, err := b.RequestService(req)
	if err != nil {
		return "", err
	}
	return offer.SLA.ID, b.Accept(offer.SLA.ID)
}

// claimReport files a claim's cells under one composite; its gate holds
// when no cell broke the claim's predicate (details names each that did).
func claimReport(config map[string]any, runs map[string]*Report, gate string, details []string) *Report {
	rep := NewReport("experiment", config, runs)
	rep.Oracle.Gates[gate] = len(details) == 0
	rep.Oracle.Details = details
	return rep.Seal()
}

// beFloor is the C3 workload: step i asks for 1–5 best-effort nodes and
// releases them again.
type beFloor struct {
	b   *core.Broker
	rng *rand.Rand
	out Tally
}

func (w *beFloor) step(i int) {
	client := fmt.Sprintf("be-%d", i)
	w.out.Ops++
	w.out.Requested++
	if err := w.b.BestEffortRequest(client, resource.Nodes(float64(1+w.rng.Intn(5)))); err != nil {
		w.out.Rejected++
		return
	}
	w.out.Admitted++
	w.out.Ops++
	_ = w.b.BestEffortRelease(client)
}

// drain has nothing to do: every grant is released in its own step, and
// the standing session expires in the engine's drain.
func (w *beFloor) drain() {}

func (w *beFloor) tally(o *Outcome) { *o.Tally = w.out }

func runC3Once(seed int64, gLoad float64) (*Report, error) {
	topo, err := newTopology(topoConfig{Base: stack.Config{Plan: paperPlan(26)}})
	if err != nil {
		return nil, err
	}
	defer topo.close()
	b := topo.members[0].Broker
	if gLoad > 0 {
		if _, err := establish(b, core.Request{Service: "simulation", Client: "standing", Class: sla.ClassGuaranteed,
			Spec: sla.NewSpec(sla.Exact(resource.CPU, gLoad)), Start: Epoch, End: Epoch.Add(48 * time.Hour)}); err != nil {
			return nil, fmt.Errorf("sim: standing load %g not admitted: %w", gLoad, err)
		}
	}
	w := &beFloor{b: b, rng: rand.New(rand.NewSource(seed))}
	e := &engine{topo: topo, work: w, steps: 200}
	if err := e.run(); err != nil {
		return nil, err
	}
	return e.report("experiment", map[string]any{"experiment": "C3", "seed": seed, "g_load": gLoad}).Seal(), nil
}

// C4Row compares the optimizer against its baselines on one instance
// size.
type C4Row struct {
	Services        int
	ProfitExact     float64
	ProfitGreedy    float64
	ProfitFirstFit  float64
	ProfitMinimum   float64
	GreedyVsExact   float64 // Greedy/Exact; 0 when Exact was skipped
	GreedyVsMinimum float64
}

// RunC4 builds random controlled-load marketplaces and compares the §5.3
// optimizer (Greedy, with Exact as the oracle on small instances) against
// the static-minimum and first-fit baselines — the claim that the
// heuristic "aims to maximize overall monetary profit".
func RunC4(seed int64, sizes []int) ([]C4Row, error) {
	if len(sizes) == 0 {
		sizes = []int{4, 6, 8, 10, 24, 48}
	}
	rng := rand.New(rand.NewSource(seed))
	model := pricing.NewModel(pricing.DefaultRates)
	rates := model.ClassRates(sla.ClassControlledLoad)
	var rows []C4Row
	for _, n := range sizes {
		p := core.OptProblem{Capacity: resource.Capacity{
			CPU:      float64(3 * n), // tight: ~half of aggregate best demand
			MemoryMB: float64(512 * n),
		}}
		for i := 0; i < n; i++ {
			minCPU := float64(1 + rng.Intn(2))
			maxCPU := minCPU + float64(2+rng.Intn(6))
			minMem := float64(128 * (1 + rng.Intn(2)))
			// Clients differ in willingness to pay (the paper: "users
			// who are willing to pay different amounts to access Grid
			// services"); the optimizer should favor high payers.
			mult := 0.5 + 1.5*rng.Float64()
			p.Services = append(p.Services, core.OptService{
				ID: sla.ID(fmt.Sprintf("mkt-%d", i)),
				Spec: sla.NewSpec(
					sla.Range(resource.CPU, minCPU, maxCPU),
					sla.List(resource.MemoryMB, minMem, minMem*2, minMem*4),
				),
				Rates: pricing.Rates{
					PerCPUNode:  rates.PerCPUNode * mult,
					PerMemoryMB: rates.PerMemoryMB * mult,
					PerDiskGB:   rates.PerDiskGB * mult,
					PerMbps:     rates.PerMbps * mult,
				},
				RangeSteps: 4,
			})
		}
		greedy, err := core.Greedy(p)
		if err != nil {
			return nil, err
		}
		ff, err := core.BaselineFirstFit(p)
		if err != nil {
			return nil, err
		}
		min, err := core.BaselineMinimum(p)
		if err != nil {
			return nil, err
		}
		row := C4Row{
			Services:       n,
			ProfitGreedy:   greedy.Profit,
			ProfitFirstFit: ff.Profit,
			ProfitMinimum:  min.Profit,
		}
		if n <= 10 {
			exact, err := core.Exact(p)
			if err != nil {
				return nil, err
			}
			row.ProfitExact = exact.Profit
			row.GreedyVsExact = greedy.Profit / exact.Profit
		}
		if min.Profit > 0 {
			row.GreedyVsMinimum = greedy.Profit / min.Profit
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// RunC5 measures scenario-1 effectiveness through the full broker: the
// same guaranteed arrival sequence is offered to a broker whose standing
// controlled-load population is (or is not) willing to degrade. The paper:
// adaptation "optimize[s] resource utilization, by increasing the number
// of requests managed over a particular time". Each willingness level is
// one engine run (c5-willing-W), the levels in ascending order. Gate
// c5_compensation_admits: the last (most willing) cell admits more of
// the burst than the first.
func RunC5(seed int64, willingFracs []float64) (*Report, error) {
	if len(willingFracs) == 0 {
		willingFracs = []float64{0, 0.5, 1}
	}
	runs := map[string]*Report{}
	name := func(frac float64) string { return fmt.Sprintf("c5-willing-%g", frac) }
	for _, frac := range willingFracs {
		rep, err := runC5Once(seed, frac)
		if err != nil {
			return nil, err
		}
		runs[name(frac)] = rep
	}
	var details []string
	lo, hi := willingFracs[0], willingFracs[len(willingFracs)-1]
	if a, b := runs[name(hi)].Outcome.Admitted, runs[name(lo)].Outcome.Admitted; a <= b {
		details = append(details, fmt.Sprintf("willing %g admitted %d, not more than willing %g's %d", hi, a, lo, b))
	}
	return claimReport(map[string]any{"experiment": "C5", "seed": seed, "willing": willingFracs}, runs, "c5_compensation_admits", details), nil
}

// burst is the C5 workload: step i moves the clock an hour and offers
// a guaranteed arrival of 4–8 nodes holding 2 hours.
type burst struct {
	b     *core.Broker
	clock *clockx.Manual
	rng   *rand.Rand
	out   Tally
}

func (w *burst) step(i int) {
	w.clock.Advance(time.Hour)
	w.out.Ops++
	w.out.Requested++
	now := w.clock.Now()
	if _, err := establish(w.b, core.Request{Service: "simulation", Client: fmt.Sprintf("burst-%d", i), Class: sla.ClassGuaranteed,
		Spec: sla.NewSpec(sla.Exact(resource.CPU, float64(4+w.rng.Intn(5)))), Start: now, End: now.Add(2 * time.Hour)}); err != nil {
		w.out.Rejected++
		return
	}
	w.out.Admitted++
}

// drain has nothing to do: the arrivals and the standing population
// expire in the engine's drain.
func (w *burst) drain() {}

// tally files the burst's counters; the report adds the broker's
// scenario-1 degradations over the whole run (sessions may be restored
// by scenario 2 before the end).
func (w *burst) tally(o *Outcome) { *o.Tally = w.out }

func runC5Once(seed int64, willingFrac float64) (*Report, error) {
	const confirm = time.Hour
	topo, err := newTopology(topoConfig{Base: stack.Config{Plan: paperPlan(26), ConfirmWindow: confirm}})
	if err != nil {
		return nil, err
	}
	defer topo.close()
	b := topo.members[0].Broker
	rng := rand.New(rand.NewSource(seed))

	// Standing population: 3 controlled-load sessions spanning the run.
	for i := 0; i < 3; i++ {
		if _, err := establish(b, core.Request{Service: "simulation", Client: fmt.Sprintf("standing-%d", i),
			Class: sla.ClassControlledLoad, Spec: sla.NewSpec(sla.Range(resource.CPU, 2, 6)),
			Start: Epoch, End: Epoch.Add(48 * time.Hour), AcceptDegradation: rng.Float64() < willingFrac}); err != nil {
			return nil, fmt.Errorf("sim: standing session %d not admitted: %w", i, err)
		}
	}
	w := &burst{b: b, clock: topo.clock, rng: rng}
	e := &engine{topo: topo, work: w, steps: 12, quiesceEvery: 1, lifecycle: confirm}
	if err := e.run(); err != nil {
		return nil, err
	}
	return e.report("experiment", map[string]any{"experiment": "C5", "seed": seed, "willing": willingFrac}).Seal(), nil
}

// FormatC4 renders the C4 table.
func FormatC4(rows []C4Row) string {
	var sb strings.Builder
	sb.WriteString("N     exact     greedy    first-fit  minimum   greedy/exact  greedy/min\n")
	for _, r := range rows {
		exact := "-"
		ratio := "-"
		if r.ProfitExact > 0 {
			exact = fmt.Sprintf("%.1f", r.ProfitExact)
			ratio = fmt.Sprintf("%.3f", r.GreedyVsExact)
		}
		fmt.Fprintf(&sb, "%-5d %-9s %-9.1f %-10.1f %-9.1f %-13s %.3f\n",
			r.Services, exact, r.ProfitGreedy, r.ProfitFirstFit, r.ProfitMinimum, ratio, r.GreedyVsMinimum)
	}
	return sb.String()
}
