package gqosm

// This file is the benchmark harness of DESIGN.md §4: one testing.B bench
// per paper artifact (Tables 1–4, Figures 2–4, the §5.6 worked example)
// and per claim experiment (C1–C5), plus the ablation benches of DESIGN.md
// §5. Run with:
//
//	go test -bench=. -benchmem
//
// Benches report domain-specific metrics (admission rates, utilization,
// profit ratios) via b.ReportMetric alongside ns/op.

import (
	"encoding/xml"
	"fmt"
	"testing"
	"time"

	"gqosm/internal/core"
	"gqosm/internal/gara"
	"gqosm/internal/pricing"
	"gqosm/internal/resource"
	"gqosm/internal/sim"
	"gqosm/internal/sla"
)

var benchEpoch = time.Date(2003, 6, 16, 9, 0, 0, 0, time.UTC)

func benchStack(b *testing.B) *Stack {
	b.Helper()
	stack, err := NewStack(StackConfig{
		Domain: "site-a",
		Clock:  NewManualClock(benchEpoch),
		Plan: CapacityPlan{
			Guaranteed: Capacity{CPU: 15, MemoryMB: 6144, DiskGB: 120},
			Adaptive:   Capacity{CPU: 6, MemoryMB: 2048, DiskGB: 40},
			BestEffort: Capacity{CPU: 5, MemoryMB: 2048, DiskGB: 40},
		},
		ConfirmWindow: time.Hour,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(stack.Close)
	return stack
}

// BenchmarkTable1SLAEncoding round-trips the Table-1 SLA resource portion
// through its XML wire form.
func BenchmarkTable1SLAEncoding(b *testing.B) {
	spec := NewSpec(Exact(CPU, 4), Exact(MemoryMB, 64), Exact(BandwidthMbps, 10))
	spec.SourceIP, spec.DestIP = "192.200.168.33", "135.200.50.101"
	spec.MaxPacketLossPct = 10
	alloc := Capacity{CPU: 4, MemoryMB: 64, BandwidthMbps: 10}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		doc := sla.EncodeServiceSpecific(spec, alloc)
		data, err := xml.Marshal(doc)
		if err != nil {
			b.Fatal(err)
		}
		var back sla.ServiceSpecificXML
		if err := xml.Unmarshal(data, &back); err != nil {
			b.Fatal(err)
		}
		if _, _, err := sla.DecodeServiceSpecific(back); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable2GARALifecycle measures the four Table-2 primitives:
// create → bind → unbind → cancel.
func BenchmarkTable2GARALifecycle(b *testing.B) {
	pool := resource.NewPool("bench", Capacity{CPU: 1 << 20, MemoryMB: 1 << 30, DiskGB: 1 << 20})
	sys := gara.NewSystem()
	sys.RegisterManager(gara.NewComputeManager(pool))
	start, end := benchEpoch, benchEpoch.Add(time.Hour)
	const req = `&(reservation-type="compute")(count=10)(memory=2048)(disk=15)`
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h, err := sys.Create(req, start, end, "bench")
		if err != nil {
			b.Fatal(err)
		}
		if err := sys.Bind(h); err != nil {
			b.Fatal(err)
		}
		if err := sys.Unbind(h); err != nil {
			b.Fatal(err)
		}
		if err := sys.Cancel(h); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable3ConformanceTest measures the SLA-Verif conformance test
// producing the Table-3 reply.
func BenchmarkTable3ConformanceTest(b *testing.B) {
	stack := benchStack(b)
	offer, err := stack.Broker.RequestService(Request{
		Service: "simulation", Client: "bench", Class: ClassGuaranteed,
		Spec:  NewSpec(Exact(CPU, 10), Exact(MemoryMB, 2048), Exact(DiskGB, 15)),
		Start: benchEpoch, End: benchEpoch.Add(100 * time.Hour),
	})
	if err != nil {
		b.Fatal(err)
	}
	if err := stack.Broker.Accept(offer.SLA.ID); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := stack.Broker.Verify(offer.SLA.ID)
		if err != nil || !rep.Conforms {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable4Negotiation measures a full controlled-load negotiation
// (discovery → admission → temporary reservation → offer) plus rejection.
func BenchmarkTable4Negotiation(b *testing.B) {
	stack := benchStack(b)
	req := Request{
		Service: "simulation", Client: "bench", Class: ClassControlledLoad,
		Spec:  NewSpec(Range(CPU, 2, 8), Range(MemoryMB, 512, 2048)),
		Start: benchEpoch, End: benchEpoch.Add(time.Hour),
		AcceptDegradation: true, PromotionOptIn: true,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		offer, err := stack.Broker.RequestService(req)
		if err != nil {
			b.Fatal(err)
		}
		if err := stack.Broker.Reject(offer.SLA.ID); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure2EndToEndSession measures the full Fig. 2 sequence:
// request → accept → invoke → verify → terminate.
func BenchmarkFigure2EndToEndSession(b *testing.B) {
	stack := benchStack(b)
	req := Request{
		Service: "simulation", Client: "bench", Class: ClassGuaranteed,
		Spec:  NewSpec(Exact(CPU, 10), Exact(MemoryMB, 2048), Exact(DiskGB, 15)),
		Start: benchEpoch, End: benchEpoch.Add(1000 * time.Hour),
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		offer, err := stack.Broker.RequestService(req)
		if err != nil {
			b.Fatal(err)
		}
		id := offer.SLA.ID
		if err := stack.Broker.Accept(id); err != nil {
			b.Fatal(err)
		}
		if _, err := stack.Broker.Invoke(id); err != nil {
			b.Fatal(err)
		}
		if _, err := stack.Broker.Verify(id); err != nil {
			b.Fatal(err)
		}
		if err := stack.Broker.Terminate(id, "bench"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure3SessionLifecycle measures the SLA document state
// machine.
func BenchmarkFigure3SessionLifecycle(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		d := &sla.Document{
			ID: "bench", Class: ClassGuaranteed,
			Spec:  NewSpec(Exact(CPU, 10)),
			State: sla.StateProposed,
		}
		for _, next := range []sla.State{
			sla.StateEstablished, sla.StateActive, sla.StateDegraded,
			sla.StateActive, sla.StateTerminated,
		} {
			if err := d.Transition(next); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkExample56Timeline replays the complete §5.6 worked example.
func BenchmarkExample56Timeline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := sim.RunE56()
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Rows) != 6 {
			b.Fatal("short timeline")
		}
	}
}

// BenchmarkClaimUtilization replays a heavy trace on the broker and
// against the static reference, reporting the utilization gap (C1).
func BenchmarkClaimUtilization(b *testing.B) {
	wl := sim.Workload{
		Seed: 42, ArrivalPerHour: 16, Duration: 24 * time.Hour,
		GuaranteedFrac: 0.3, ControlledFrac: 0.2, MeanHoldHours: 3, MaxNodes: 8,
	}
	plan := core.CapacityPlan{Guaranteed: Nodes(15), Adaptive: Nodes(6), BestEffort: Nodes(5)}
	trace := wl.Trace()
	var gap float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := sim.ReplayClaim("bench-c1", wl, plan, nil)
		if err != nil {
			b.Fatal(err)
		}
		ss := sim.Replay(trace, sim.NewStaticPolicy(plan))
		gap = rep.Outcome.Scenario.Extras["utilization"] - ss.MeanUtilization
	}
	b.ReportMetric(gap, "util-gap")
}

// BenchmarkClaimFailureSurvival replays a failure-laden trace (C2),
// reporting the guarantees the adaptive reserve saved.
func BenchmarkClaimFailureSurvival(b *testing.B) {
	saved := 0.0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := sim.RunC2(42, []float64{0.2})
		if err != nil {
			b.Fatal(err)
		}
		broken := func(arm string) float64 {
			return rep.Runs["c2-f0.2-"+arm].Outcome.Scenario.Extras["broken_guarantees"]
		}
		saved = broken("no-reserve") - broken("reserve")
	}
	b.ReportMetric(saved, "guarantees-saved")
}

// BenchmarkClaimBestEffortFloor measures a best-effort request and release
// on a broker whose guaranteed pool is saturated (C3).
func BenchmarkClaimBestEffortFloor(b *testing.B) {
	stack := benchStack(b)
	standing, err := stack.Broker.RequestService(Request{
		Service: "simulation", Client: "standing", Class: ClassGuaranteed,
		Spec:  NewSpec(Exact(CPU, 15)),
		Start: benchEpoch, End: benchEpoch.Add(1000 * time.Hour),
	})
	if err != nil {
		b.Fatal(err)
	}
	if err := stack.Broker.Accept(standing.SLA.ID); err != nil {
		b.Fatal("standing load rejected")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := stack.Broker.BestEffortRequest("be", Nodes(5)); err != nil {
			b.Fatalf("best-effort floor violated: %v", err)
		}
		if err := stack.Broker.BestEffortRelease("be"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkClaimOptimizerProfit measures one optimizer pass over a
// 24-service marketplace (C4), reporting greedy profit per minimum-profit
// unit.
func BenchmarkClaimOptimizerProfit(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		rows, err := sim.RunC4(42, []int{24})
		if err != nil {
			b.Fatal(err)
		}
		ratio = rows[0].GreedyVsMinimum
	}
	b.ReportMetric(ratio, "greedy/min-profit")
}

// BenchmarkScenario1Compensation measures admitting a guaranteed request
// that requires degrading a willing controlled-load session (C5 / §4
// scenario 1).
func BenchmarkScenario1Compensation(b *testing.B) {
	stack := benchStack(b)
	// Standing willing session occupying the whole guaranteed pool.
	standing, err := stack.Broker.RequestService(Request{
		Service: "simulation", Client: "standing", Class: ClassControlledLoad,
		Spec:  NewSpec(Range(CPU, 2, 15)),
		Start: benchEpoch, End: benchEpoch.Add(1000 * time.Hour),
		AcceptDegradation: true,
	})
	if err != nil {
		b.Fatal(err)
	}
	if err := stack.Broker.Accept(standing.SLA.ID); err != nil {
		b.Fatal(err)
	}
	req := Request{
		Service: "simulation", Client: "burst", Class: ClassGuaranteed,
		Spec:  NewSpec(Exact(CPU, 10)),
		Start: benchEpoch, End: benchEpoch.Add(1000 * time.Hour),
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		offer, err := stack.Broker.RequestService(req)
		if err != nil {
			b.Fatal(err)
		}
		if err := stack.Broker.Reject(offer.SLA.ID); err != nil {
			b.Fatal(err)
		}
		// The standing session stays at its floor until scenario 2
		// restores it; restoration is exercised by the next iteration's
		// compensation pass either way.
	}
}

// BenchmarkScenario2ReleaseUpgrade measures the scenario-2 pass (restore +
// optimizer + promotions) after a termination.
func BenchmarkScenario2ReleaseUpgrade(b *testing.B) {
	stack := benchStack(b)
	cl, err := stack.Broker.RequestService(Request{
		Service: "simulation", Client: "tenant", Class: ClassControlledLoad,
		Spec:  NewSpec(Range(CPU, 2, 8)),
		Start: benchEpoch, End: benchEpoch.Add(1000 * time.Hour),
		AcceptDegradation: true, PromotionOptIn: true,
	})
	if err != nil {
		b.Fatal(err)
	}
	if err := stack.Broker.Accept(cl.SLA.ID); err != nil {
		b.Fatal(err)
	}
	req := Request{
		Service: "simulation", Client: "burst", Class: ClassGuaranteed,
		Spec:  NewSpec(Exact(CPU, 12)),
		Start: benchEpoch, End: benchEpoch.Add(1000 * time.Hour),
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		offer, err := stack.Broker.RequestService(req)
		if err != nil {
			b.Fatal(err)
		}
		if err := stack.Broker.Accept(offer.SLA.ID); err != nil {
			b.Fatal(err)
		}
		// Terminate triggers the full scenario-2 pass.
		if err := stack.Broker.Terminate(offer.SLA.ID, "bench"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkScenario3FailureAdapt measures NotifyFailure + recovery (the
// §5.6 t2/t3 events).
func BenchmarkScenario3FailureAdapt(b *testing.B) {
	stack := benchStack(b)
	offer, err := stack.Broker.RequestService(Request{
		Service: "simulation", Client: "s", Class: ClassGuaranteed,
		Spec:  NewSpec(Exact(CPU, 14)),
		Start: benchEpoch, End: benchEpoch.Add(1000 * time.Hour),
	})
	if err != nil {
		b.Fatal(err)
	}
	if err := stack.Broker.Accept(offer.SLA.ID); err != nil {
		b.Fatal(err)
	}
	if err := stack.Broker.BestEffortRequest("be", Nodes(10)); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		stack.Broker.NotifyFailure(Nodes(3))
		stack.Broker.NotifyFailure(Capacity{})
	}
}

// --- Ablations (DESIGN.md §5) ---

// BenchmarkAblationAdaptiveSizing sweeps the adaptive-reserve share and
// reports broken guarantees at each size on the broker — the
// administrator's C_A knob.
func BenchmarkAblationAdaptiveSizing(b *testing.B) {
	for _, share := range []float64{0, 0.1, 0.2, 0.3} {
		b.Run(fmt.Sprintf("A=%.0f%%", share*100), func(b *testing.B) {
			const totalNodes = 40.0
			wl := sim.Workload{
				Seed: 42, ArrivalPerHour: 10, Duration: 48 * time.Hour,
				GuaranteedFrac: 0.6, MeanHoldHours: 4, MaxNodes: 6,
			}
			var outages []sim.Outage
			for at := time.Duration(0); at < wl.Duration; at += 12 * time.Hour {
				outages = append(outages,
					sim.Outage{At: at + time.Hour, Offline: Nodes(totalNodes * 0.2)},
					sim.Outage{At: at + 3*time.Hour})
			}
			plan := core.CapacityPlan{
				Guaranteed: Nodes(totalNodes * (0.9 - share)),
				Adaptive:   Nodes(totalNodes * share),
				BestEffort: Nodes(totalNodes * 0.1),
			}
			var broken float64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rep, err := sim.ReplayClaim("bench-sizing", wl, plan, outages)
				if err != nil {
					b.Fatal(err)
				}
				broken = rep.Outcome.Scenario.Extras["broken_guarantees"]
			}
			b.ReportMetric(broken, "broken-guarantees")
		})
	}
}

// BenchmarkAblationBorrowing compares admissions with dynamic borrowing on
// (the broker) vs off (the static reference).
func BenchmarkAblationBorrowing(b *testing.B) {
	wl := sim.Workload{
		Seed: 42, ArrivalPerHour: 16, Duration: 24 * time.Hour,
		GuaranteedFrac: 0.2, ControlledFrac: 0, MeanHoldHours: 2, MaxNodes: 8,
	}
	trace := wl.Trace()
	plan := core.CapacityPlan{Guaranteed: Nodes(15), Adaptive: Nodes(6), BestEffort: Nodes(5)}
	for _, mode := range []string{"borrowing-on", "borrowing-off"} {
		b.Run(mode, func(b *testing.B) {
			var admitted int
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if mode == "borrowing-on" {
					rep, err := sim.ReplayClaim("bench-borrowing", wl, plan, nil)
					if err != nil {
						b.Fatal(err)
					}
					admitted = rep.Outcome.Admitted
				} else {
					admitted = sim.Replay(trace, sim.NewStaticPolicy(plan)).Admitted
				}
			}
			b.ReportMetric(float64(admitted), "admitted")
		})
	}
}

// BenchmarkAblationOptimizerExactVsGreedy compares solver latency and
// profit at the exact-solvable boundary (branch-and-bound cost grows
// steeply with instance size; see BenchmarkClaimOptimizerProfit for the
// large-instance greedy path).
func BenchmarkAblationOptimizerExactVsGreedy(b *testing.B) {
	problem := benchOptProblem(8)
	b.Run("exact", func(b *testing.B) {
		var profit float64
		for i := 0; i < b.N; i++ {
			res, err := core.Exact(problem)
			if err != nil {
				b.Fatal(err)
			}
			profit = res.Profit
		}
		b.ReportMetric(profit, "profit")
	})
	b.Run("greedy", func(b *testing.B) {
		var profit float64
		for i := 0; i < b.N; i++ {
			res, err := core.Greedy(problem)
			if err != nil {
				b.Fatal(err)
			}
			profit = res.Profit
		}
		b.ReportMetric(profit, "profit")
	})
}

// BenchmarkAblationConfirmWindow measures how many offers expire
// unconfirmed (stranding temporary reservations) as clients dawdle beyond
// the §3.1 confirmation window.
func BenchmarkAblationConfirmWindow(b *testing.B) {
	for _, window := range []time.Duration{time.Minute, 10 * time.Minute} {
		b.Run(window.String(), func(b *testing.B) {
			clock := NewManualClock(benchEpoch)
			stack, err := NewStack(StackConfig{
				Clock: clock,
				Plan: CapacityPlan{
					Guaranteed: Capacity{CPU: 15}, Adaptive: Capacity{CPU: 6}, BestEffort: Capacity{CPU: 5},
				},
				ConfirmWindow: window,
			})
			if err != nil {
				b.Fatal(err)
			}
			defer stack.Close()
			expired := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				offer, err := stack.Broker.RequestService(Request{
					Service: "simulation", Client: "slow", Class: ClassGuaranteed,
					Spec:  NewSpec(Exact(CPU, 10)),
					Start: clock.Now(), End: clock.Now().Add(1000 * time.Hour),
				})
				if err != nil {
					b.Fatal(err)
				}
				// The client takes five minutes to decide.
				clock.Advance(5 * time.Minute)
				if err := stack.Broker.Accept(offer.SLA.ID); err != nil {
					expired++
				} else if err := stack.Broker.Terminate(offer.SLA.ID, "bench"); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(expired)/float64(b.N), "expired-offer-rate")
		})
	}
}

// BenchmarkAblationOptimizerThreshold sweeps the "considerable gain"
// threshold (§5.5): a low threshold reallocates eagerly and captures the
// upgrade profit; a high one leaves upgrades on the table.
func BenchmarkAblationOptimizerThreshold(b *testing.B) {
	for _, threshold := range []float64{0.5, 10, 100} {
		b.Run(fmt.Sprintf("gain>=%.1f", threshold), func(b *testing.B) {
			var applied int
			for i := 0; i < b.N; i++ {
				clock := NewManualClock(benchEpoch)
				stack, err := NewStack(StackConfig{
					Clock: clock,
					Plan: CapacityPlan{
						Guaranteed: Capacity{CPU: 15}, Adaptive: Capacity{CPU: 6}, BestEffort: Capacity{CPU: 5},
					},
					ConfirmWindow:    time.Hour,
					MinOptimizerGain: threshold,
				})
				if err != nil {
					b.Fatal(err)
				}
				// A guaranteed burst holds most of the pool, so the
				// tenant is admitted *below* its best quality (but never
				// degraded — scenario 2a's restore must not fire). When
				// the burst ends, only the optimizer (scenario 2b) can
				// upgrade the tenant, and only if the gain clears the
				// threshold.
				burst, err := stack.Broker.RequestService(Request{
					Service: "simulation", Client: "burst", Class: ClassGuaranteed,
					Spec:  NewSpec(Exact(CPU, 12)),
					Start: clock.Now(), End: clock.Now().Add(1000 * time.Hour),
				})
				if err != nil {
					b.Fatal(err)
				}
				if err := stack.Broker.Accept(burst.SLA.ID); err != nil {
					b.Fatal(err)
				}
				tenant, err := stack.Broker.RequestService(Request{
					Service: "simulation", Client: "tenant", Class: ClassControlledLoad,
					Spec:  NewSpec(Range(CPU, 2, 8)),
					Start: clock.Now(), End: clock.Now().Add(1000 * time.Hour),
				})
				if err != nil {
					b.Fatal(err)
				}
				if err := stack.Broker.Accept(tenant.SLA.ID); err != nil {
					b.Fatal(err)
				}
				if err := stack.Broker.Terminate(burst.SLA.ID, "bench"); err != nil {
					b.Fatal(err)
				}
				doc, err := stack.Broker.Session(tenant.SLA.ID)
				if err != nil {
					b.Fatal(err)
				}
				if doc.Allocated.Equal(doc.Spec.Best()) {
					applied++
				}
				stack.Close()
			}
			b.ReportMetric(float64(applied)/float64(b.N), "upgrade-rate")
		})
	}
}

func benchOptProblem(n int) core.OptProblem {
	model := pricing.NewModel(pricing.DefaultRates)
	rates := model.ClassRates(sla.ClassControlledLoad)
	p := core.OptProblem{Capacity: Capacity{CPU: float64(3 * n), MemoryMB: float64(512 * n)}}
	for i := 0; i < n; i++ {
		p.Services = append(p.Services, core.OptService{
			ID: sla.ID(fmt.Sprintf("svc-%d", i)),
			Spec: NewSpec(
				Range(CPU, float64(1+i%2), float64(4+i%5)),
				List(MemoryMB, 128, 256, 512),
			),
			Rates:      rates,
			RangeSteps: 3,
		})
	}
	return p
}
