package sim

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

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

// C1Row compares utilization and admission under one arrival rate.
type C1Row struct {
	ArrivalPerHour float64
	UtilAdaptive   float64
	UtilStatic     float64
	AdmitAdaptive  float64
	AdmitStatic    float64
}

// RunC1 sweeps the arrival rate and compares the adaptive scheme against
// the rigid-partition baseline on identical traces — the §5.4 claim
// "resources are never under-utilized due to the dynamic property of the
// algorithm".
func RunC1(seed int64, rates []float64) ([]C1Row, error) {
	if len(rates) == 0 {
		rates = []float64{2, 4, 8, 16, 32}
	}
	var rows []C1Row
	for _, rate := range rates {
		wl := Workload{
			Seed:           seed,
			ArrivalPerHour: rate,
			Duration:       72 * time.Hour,
			GuaranteedFrac: 0.3,
			ControlledFrac: 0.2,
			MeanHoldHours:  3,
			MaxNodes:       8,
		}
		trace := wl.Trace()
		adaptive, err := NewAdaptivePolicy(paperPlan(26))
		if err != nil {
			return nil, err
		}
		static := NewStaticPolicy(paperPlan(26))
		sa := Replay(trace, adaptive, nil)
		ss := Replay(trace, static, nil)
		rows = append(rows, C1Row{
			ArrivalPerHour: rate,
			UtilAdaptive:   sa.MeanUtilization,
			UtilStatic:     ss.MeanUtilization,
			AdmitAdaptive:  sa.AdmissionRate(),
			AdmitStatic:    ss.AdmissionRate(),
		})
	}
	return rows, nil
}

// C2Row compares guarantee survival under one failure rate.
type C2Row struct {
	FailureRate     float64 // fraction of total capacity failing at once
	BrokenAdaptive  int     // failure events breaking guarantees, A sized to f
	BrokenNoReserve int     // same trace, all capacity in C_G (no reserve)
	AdmitAdaptive   float64
	AdmitNoReserve  float64
}

// RunC2 sweeps the failure rate: the adaptive plan sizes C_A to the
// administrator's expected failure rate ("the algorithm reserves an
// 'adaptive capacity', based on the specified rate of resource failure or
// congestion"); the baseline spends that capacity on a bigger C_G instead.
func RunC2(seed int64, failureRates []float64) ([]C2Row, error) {
	if len(failureRates) == 0 {
		failureRates = []float64{0.05, 0.1, 0.2, 0.3}
	}
	const totalNodes = 40.0
	var rows []C2Row
	for _, f := range failureRates {
		wl := Workload{
			Seed:           seed,
			ArrivalPerHour: 10,
			Duration:       96 * time.Hour,
			GuaranteedFrac: 0.6,
			ControlledFrac: 0,
			MeanHoldHours:  4,
			MaxNodes:       6,
		}
		trace := wl.Trace()

		// One failure every ~12 hours taking f×total offline for 2h.
		rng := rand.New(rand.NewSource(seed + int64(f*1000)))
		var failures []FailureEvent
		for at := time.Duration(0); at < wl.Duration; at += time.Duration(8+rng.Intn(8)) * time.Hour {
			failures = append(failures, FailureEvent{
				At:       at + time.Hour,
				Offline:  resource.Nodes(totalNodes * f),
				Duration: 2 * time.Hour,
			})
		}

		planAdaptive, err := core.PlanForFailureRate(resource.Nodes(totalNodes), f, 0.1)
		if err != nil {
			return nil, err
		}
		planNoReserve := core.CapacityPlan{
			Guaranteed: planAdaptive.Guaranteed.Add(planAdaptive.Adaptive),
			BestEffort: planAdaptive.BestEffort,
		}

		adaptive, err := NewAdaptivePolicy(planAdaptive)
		if err != nil {
			return nil, err
		}
		noReserve, err := NewAdaptivePolicy(planNoReserve)
		if err != nil {
			return nil, err
		}
		sa := Replay(trace, adaptive, failures)
		sn := Replay(trace, noReserve, failures)
		rows = append(rows, C2Row{
			FailureRate:     f,
			BrokenAdaptive:  sa.BrokenGuarantees,
			BrokenNoReserve: sn.BrokenGuarantees,
			AdmitAdaptive:   sa.AdmissionRate(),
			AdmitNoReserve:  sn.AdmissionRate(),
		})
	}
	return rows, nil
}

// C3Row measures the best-effort floor under guaranteed saturation.
type C3Row struct {
	GuaranteedLoadNodes float64 // standing guaranteed demand
	BEAdmitted          int
	BERequested         int
	BEFloorHonored      bool // every request ≤ C_B admitted
}

// RunC3 saturates the guaranteed side and checks the §5.4 claim "a minimum
// resource capacity is allocated for 'best effort' users, therefore users
// with no SLAs can always make use of the 'best effort' resources".
func RunC3(seed int64) ([]C3Row, error) {
	plan := paperPlan(26) // C_B = 5
	var rows []C3Row
	for _, gLoad := range []float64{0, 8, 12, 15} {
		policy, err := NewAdaptivePolicy(plan)
		if err != nil {
			return nil, err
		}
		if gLoad > 0 {
			if !policy.AllocateGuaranteed("standing", resource.Nodes(gLoad), resource.Nodes(gLoad)) {
				return nil, fmt.Errorf("sim: standing load %g not admitted", gLoad)
			}
		}
		rng := rand.New(rand.NewSource(seed))
		row := C3Row{GuaranteedLoadNodes: gLoad, BEFloorHonored: true}
		for i := 0; i < 200; i++ {
			id := fmt.Sprintf("be-%d", i)
			n := float64(1 + rng.Intn(5)) // requests never exceed C_B = 5
			row.BERequested++
			if policy.AllocateBestEffort(id, resource.Nodes(n)) {
				row.BEAdmitted++
				policy.ReleaseBestEffort(id)
			} else {
				row.BEFloorHonored = false
			}
		}
		rows = append(rows, row)
	}
	return rows, nil
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

// C5Row measures admission under one willingness level; sweeping the
// level from 0 (no volunteers — adaptation disabled in practice) to 1
// contrasts scenario-1 compensation against its absence.
type C5Row struct {
	WillingFrac      float64 // fraction of sessions accepting degradation
	AdmittedWith     int
	ArrivalCount     int
	DegradedSessions int
}

// RunC5 measures scenario-1 effectiveness through the full broker: the
// same guaranteed arrival sequence is offered to a broker whose standing
// controlled-load population is (or is not) willing to degrade. The paper:
// adaptation "optimize[s] resource utilization, by increasing the number
// of requests managed over a particular time".
func RunC5(seed int64, willingFracs []float64) ([]C5Row, error) {
	if len(willingFracs) == 0 {
		willingFracs = []float64{0, 0.5, 1}
	}
	var rows []C5Row
	for _, frac := range willingFracs {
		row, err := runC5Once(seed, frac)
		if err != nil {
			return nil, err
		}
		rows = append(rows, *row)
	}
	return rows, nil
}

func runC5Once(seed int64, willingFrac float64) (*C5Row, error) {
	plan := paperPlan(26)
	cl, err := NewCluster(stack.Config{Plan: plan, ConfirmWindow: time.Hour})
	if err != nil {
		return nil, err
	}
	defer cl.Close()
	b := cl.Broker
	rng := rand.New(rand.NewSource(seed))

	// Standing population: 3 controlled-load sessions spanning the run.
	standing := 0
	for i := 0; i < 3; i++ {
		req := core.Request{
			Service: "simulation",
			Client:  fmt.Sprintf("standing-%d", i),
			Class:   sla.ClassControlledLoad,
			Spec: sla.NewSpec(
				sla.Range(resource.CPU, 2, 6),
			),
			Start:             Epoch,
			End:               Epoch.Add(48 * time.Hour),
			AcceptDegradation: rng.Float64() < willingFrac,
		}
		offer, err := b.RequestService(req)
		if err != nil {
			return nil, err
		}
		if err := b.Accept(offer.SLA.ID); err != nil {
			return nil, err
		}
		standing++
	}

	// A burst of guaranteed arrivals, each holding 2 hours.
	row := &C5Row{WillingFrac: willingFrac}
	for i := 0; i < 12; i++ {
		cl.Clock.Advance(time.Hour)
		b.ExpireDue()
		row.ArrivalCount++
		req := core.Request{
			Service: "simulation",
			Client:  fmt.Sprintf("burst-%d", i),
			Class:   sla.ClassGuaranteed,
			Spec:    sla.NewSpec(sla.Exact(resource.CPU, float64(4+rng.Intn(5)))),
			Start:   cl.Clock.Now(),
			End:     cl.Clock.Now().Add(2 * time.Hour),
		}
		offer, err := b.RequestService(req)
		if err != nil {
			continue
		}
		if err := b.Accept(offer.SLA.ID); err != nil {
			continue
		}
		row.AdmittedWith++
	}
	// Scenario-1 degradations over the whole run (sessions may be restored
	// by scenario 2 before the end): the broker's lifecycle counter, which
	// unlike the bounded event ring never forgets.
	row.DegradedSessions = int(cl.Obs.Counter("gqosm_broker_lifecycle_total",
		"SLA lifecycle events by kind", "event", "degrade").Value())
	_ = standing
	return row, nil
}

// FormatRows renders any of the claim tables for gridsim.
func FormatC1(rows []C1Row) string {
	var sb strings.Builder
	sb.WriteString("λ/h   util(adaptive)  util(static)  admit(adaptive)  admit(static)\n")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-5g %-15.3f %-13.3f %-16.3f %-13.3f\n",
			r.ArrivalPerHour, r.UtilAdaptive, r.UtilStatic, r.AdmitAdaptive, r.AdmitStatic)
	}
	return sb.String()
}

// FormatC2 renders the C2 table.
func FormatC2(rows []C2Row) string {
	var sb strings.Builder
	sb.WriteString("f      broken(adaptive)  broken(no-reserve)  admit(adaptive)  admit(no-reserve)\n")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-6g %-17d %-19d %-16.3f %-17.3f\n",
			r.FailureRate, r.BrokenAdaptive, r.BrokenNoReserve, r.AdmitAdaptive, r.AdmitNoReserve)
	}
	return sb.String()
}

// FormatC3 renders the C3 table.
func FormatC3(rows []C3Row) string {
	var sb strings.Builder
	sb.WriteString("g-load  BE admitted/requested  floor honored\n")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-7g %d/%-19d %v\n", r.GuaranteedLoadNodes, r.BEAdmitted, r.BERequested, r.BEFloorHonored)
	}
	return sb.String()
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

// FormatC5 renders the C5 table.
func FormatC5(rows []C5Row) string {
	var sb strings.Builder
	sb.WriteString("willing  admitted/arrivals  degraded sessions\n")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-8g %d/%-16d %d\n", r.WillingFrac, r.AdmittedWith, r.ArrivalCount, r.DegradedSessions)
	}
	return sb.String()
}
