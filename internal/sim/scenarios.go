package sim

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"gqosm/internal/core"
	"gqosm/internal/resource"
	"gqosm/internal/sla"
)

// The built-in scenario library. Each scenario sizes its workload from
// cfg.Ops (a negotiated arrival costs ~3 broker ops: request, accept,
// terminate) and asserts the traffic shape actually materialized via
// Verify, so a silently-degenerate trace fails CI rather than passing
// vacuously.

func hours(h float64) time.Duration { return time.Duration(h * float64(time.Hour)) }

// ---- diurnal -----------------------------------------------------------

const (
	diurnalBase  = 40.0 // arrivals/hour, the daily mean
	diurnalSwing = 0.75 // peak 1.75×base, trough 0.25×base
)

func diurnalRate(at time.Duration) float64 {
	// Trough at 00:00 of each simulated day, peak at 12:00.
	day := at.Hours() / 24
	return diurnalBase * (1 + diurnalSwing*math.Sin(2*math.Pi*day-math.Pi/2))
}

var diurnal = Scenario{
	Name:  "diurnal",
	About: "sinusoidal day/night load: 7× peak-to-trough swing over a 24h period",
	Workload: func(cfg ScenarioConfig) Workload {
		arrivals := float64(cfg.Ops) / 3
		return Workload{
			Duration:           hours(arrivals / diurnalBase),
			Rate:               diurnalRate,
			RateMax:            diurnalBase * (1 + diurnalSwing),
			GuaranteedFrac:     0.2,
			ControlledFrac:     0.5,
			MeanHoldHours:      0.5,
			MaxNodes:           6,
			DegradeWillingFrac: 0.6,
		}
	},
	AfterArrival: func(run *ScenarioRun, i int, a Arrival, id sla.ID, admitted bool) {
		// Bucket arrivals by half-day phase to verify the swing took.
		hourOfDay := math.Mod(a.At.Hours(), 24)
		if hourOfDay >= 6 && hourOfDay < 18 {
			run.Extra("arrivals_peak_half", 1)
		} else {
			run.Extra("arrivals_trough_half", 1)
		}
	},
	Verify: func(o *Outcome) error {
		peak, trough := o.Scenario.Extras["arrivals_peak_half"], o.Scenario.Extras["arrivals_trough_half"]
		if trough == 0 || peak/trough < 2 {
			return fmt.Errorf("diurnal swing missing: peak-half %v vs trough-half %v arrivals", peak, trough)
		}
		if o.AdmitRate <= 0.2 {
			return fmt.Errorf("admit rate %.3f too low for a diurnal mean load", o.AdmitRate)
		}
		return nil
	},
}

// ---- flash-crowd -------------------------------------------------------

const (
	flashBase  = 6.0   // quiet arrivals/hour
	flashSpike = 600.0 // ~100× base during the crowd
)

// flashTimes derives the spike window from the run size: the crowd hits
// at 40% of the duration and burns for one hour, then decays with a 2h
// time constant.
func flashTimes(cfg ScenarioConfig) (dur, spikeStart, spikeEnd time.Duration) {
	quiet := float64(cfg.Ops)/3 - (flashSpike + 2*flashSpike) // spike hour + decay integral
	if quiet < 10*flashBase {
		quiet = 10 * flashBase
	}
	dur = hours(quiet / flashBase)
	spikeStart = time.Duration(0.4 * float64(dur))
	spikeEnd = spikeStart + time.Hour
	return dur, spikeStart, spikeEnd
}

var flashCrowd = Scenario{
	Name:  "flash-crowd",
	About: "~100× admission spike with exponential decay over a quiet baseline",
	Workload: func(cfg ScenarioConfig) Workload {
		dur, spikeStart, spikeEnd := flashTimes(cfg)
		return Workload{
			Duration: dur,
			Rate: func(at time.Duration) float64 {
				switch {
				case at < spikeStart:
					return flashBase
				case at < spikeEnd:
					return flashBase + flashSpike
				default:
					decay := (at - spikeEnd).Hours() / 2
					return flashBase + flashSpike*math.Exp(-decay)
				}
			},
			RateMax:            flashBase + flashSpike,
			GuaranteedFrac:     0.3,
			ControlledFrac:     0.5,
			MeanHoldHours:      0.75,
			MaxNodes:           6,
			DegradeWillingFrac: 0.7,
		}
	},
	AfterArrival: func(run *ScenarioRun, i int, a Arrival, id sla.ID, admitted bool) {
		_, spikeStart, spikeEnd := flashTimes(run.Cfg)
		switch {
		case a.At < spikeStart:
			run.Extra("arrivals_before", 1)
		case a.At < spikeEnd:
			run.Extra("arrivals_spike", 1)
			if admitted {
				run.Extra("admitted_spike", 1)
			}
		}
	},
	Verify: func(o *Outcome) error {
		before, spike := o.Scenario.Extras["arrivals_before"], o.Scenario.Extras["arrivals_spike"]
		if before == 0 {
			return fmt.Errorf("no pre-spike arrivals")
		}
		// before covers 40% of the run at flashBase; spike is one hour at
		// ~101× that rate. Demand at least a 30× per-hour contrast so a
		// flattened trace cannot pass.
		preHours := 0.4 * (before / flashBase) // hours of quiet traffic observed
		perHourBefore := before / preHours
		if spike < 30*perHourBefore {
			return fmt.Errorf("spike too small: %v arrivals in the crowd hour vs %v/h before", spike, perHourBefore)
		}
		if o.AdmitRate >= 0.9 {
			return fmt.Errorf("admit rate %.3f: the crowd never saturated admission", o.AdmitRate)
		}
		return nil
	},
}

// ---- tenant-mix --------------------------------------------------------

var tenantMix = Scenario{
	Name:  "tenant-mix",
	About: "heterogeneous multi-tenant load: few whales with large guaranteed reservations vs many small tenants",
	Workload: func(cfg ScenarioConfig) Workload {
		arrivals := float64(cfg.Ops) / 3
		rate := 30.0
		return Workload{
			Duration:           hours(arrivals / rate),
			ArrivalPerHour:     rate,
			GuaranteedFrac:     0.15,
			ControlledFrac:     0.55,
			MeanHoldHours:      0.6,
			MaxNodes:           2, // minnows by default; whales are shaped in
			DegradeWillingFrac: 0.5,
		}
	},
	Shape: func(cfg ScenarioConfig, rng *rand.Rand, i int, a Arrival) Arrival {
		// One arrival in ten is a whale: a long-held, large guaranteed
		// reservation that squeezes everyone else.
		if rng.Float64() < 0.10 {
			a.Class = sla.ClassGuaranteed
			a.Nodes = float64(10 + rng.Intn(4))
			a.Hold = a.Hold * 3
			a.Willing = false
		}
		return a
	},
	Request: func(run *ScenarioRun, i int, a Arrival) core.Request {
		req := run.DefaultRequest(i, a)
		if a.Nodes >= 10 {
			req.Client = fmt.Sprintf("whale-%02d", i%3)
		} else {
			req.Client = fmt.Sprintf("minnow-%02d", i%24)
		}
		return req
	},
	AfterArrival: func(run *ScenarioRun, i int, a Arrival, id sla.ID, admitted bool) {
		kind := "minnow"
		if a.Nodes >= 10 {
			kind = "whale"
		}
		run.Extra(kind+"_requested", 1)
		if admitted {
			run.Extra(kind+"_admitted", 1)
		}
	},
	Verify: func(o *Outcome) error {
		wReq, mReq := o.Scenario.Extras["whale_requested"], o.Scenario.Extras["minnow_requested"]
		total := wReq + mReq
		if total == 0 {
			return fmt.Errorf("no negotiated arrivals")
		}
		if frac := wReq / total; frac < 0.05 || frac > 0.16 {
			return fmt.Errorf("whale fraction %.3f outside [0.05, 0.16]", frac)
		}
		wAdm, mAdm := o.Scenario.Extras["whale_admitted"], o.Scenario.Extras["minnow_admitted"]
		if wReq > 0 && mReq > 0 {
			if wAdm/wReq >= mAdm/mReq {
				return fmt.Errorf("whales admitted at %.3f ≥ minnows at %.3f: contention never bit the large reservations",
					wAdm/wReq, mAdm/mReq)
			}
		}
		return nil
	},
}

// ---- reneg-storm -------------------------------------------------------

var renegStorm = Scenario{
	Name:  "reneg-storm",
	About: "controlled-load sessions renegotiate constantly while admissions continue",
	Workload: func(cfg ScenarioConfig) Workload {
		// ~5 ops per arrival: request, accept, two renegotiations, terminate.
		arrivals := float64(cfg.Ops) / 5
		rate := 30.0
		return Workload{
			Duration:           hours(arrivals / rate),
			ArrivalPerHour:     rate,
			GuaranteedFrac:     0.1,
			ControlledFrac:     0.8,
			MeanHoldHours:      0.8,
			MaxNodes:           6,
			DegradeWillingFrac: 1,
		}
	},
	AfterArrival: func(run *ScenarioRun, i int, a Arrival, id sla.ID, admitted bool) {
		// Every arrival triggers two renegotiations of random live
		// controlled-load sessions: alternately squeezing down and
		// stretching up, so the allocator sees constant churn in both
		// directions.
		live := run.LiveSessions()
		for n := 0; n < 2 && len(live) > 0; n++ {
			target := live[run.RNG.Intn(len(live))]
			doc, err := run.Cluster.Broker.Session(target)
			if err != nil || doc.Class != sla.ClassControlledLoad {
				continue
			}
			var spec sla.Spec
			if (i+n)%2 == 0 {
				spec = sla.NewSpec(sla.Range(resource.CPU, 1, math.Max(1, doc.Allocated.CPU-1)))
			} else {
				spec = sla.NewSpec(sla.Range(resource.CPU, 1, doc.Allocated.CPU+2))
			}
			run.Renegotiate(target, spec)
		}
	},
	Verify: func(o *Outcome) error {
		if o.Scenario.Renegotiations < o.Scenario.Arrivals/2 {
			return fmt.Errorf("storm never formed: %d renegotiations over %d arrivals", o.Scenario.Renegotiations, o.Scenario.Arrivals)
		}
		if o.Scenario.RenegFailures == o.Scenario.Renegotiations {
			return fmt.Errorf("every renegotiation failed")
		}
		return nil
	},
}

// ---- lease-churn -------------------------------------------------------

var leaseChurn = Scenario{
	Name:          "lease-churn",
	About:         "confirm-timeout abuse at expiry boundaries: accepts racing the offer's expiry instant",
	ConfirmWindow: 30 * time.Second,
	Workload: func(cfg ScenarioConfig) Workload {
		// Abandoned offers cost ~2 ops, boundary losses ~3, accepts ~3.
		arrivals := float64(cfg.Ops) / 3
		rate := 60.0
		return Workload{
			Duration:           hours(arrivals / rate),
			ArrivalPerHour:     rate,
			GuaranteedFrac:     0.3,
			ControlledFrac:     0.6,
			MeanHoldHours:      0.05, // ~3 minute leases: expiry sweeps churn constantly
			MaxNodes:           4,
			DegradeWillingFrac: 0.5,
		}
	},
	OnOffer: func(run *ScenarioRun, i int, a Arrival, offer *core.Offer) OfferAction {
		switch i % 3 {
		case 0:
			return OfferAcceptAtExpiry
		case 1:
			return OfferAbandon
		default:
			return OfferAccept
		}
	},
	Verify: func(o *Outcome) error {
		if o.Scenario.Extras["boundary_races"] == 0 {
			return fmt.Errorf("no accept ever raced its offer's expiry")
		}
		if o.Scenario.ExpiredOffers == 0 {
			return fmt.Errorf("no offer expired despite the abandon pattern")
		}
		if o.Admitted == 0 {
			return fmt.Errorf("nothing admitted: churn drowned the workload")
		}
		return nil
	},
}

// ---- economic ----------------------------------------------------------

// economicBudget returns tenant i's budget: half the tenants run on a
// shoestring that exhausts mid-run, half are effectively unconstrained.
func economicBudget(tenant int) float64 {
	if tenant < 4 {
		// Low enough to exhaust mid-run even in a quick (Ops≈3000)
		// pass, where each capped tenant spends roughly 200–350.
		return 150
	}
	return 0 // unconstrained
}

var economic = Scenario{
	Name:  "economic",
	About: "price-driven adaptation under contention: budget-capped tenants, degradation refunds, exhaustion mid-run",
	Workload: func(cfg ScenarioConfig) Workload {
		arrivals := float64(cfg.Ops) / 3
		rate := 45.0 // hot: compensation and degradation fire constantly
		return Workload{
			Duration:           hours(arrivals / rate),
			ArrivalPerHour:     rate,
			GuaranteedFrac:     0.25,
			ControlledFrac:     0.65,
			MeanHoldHours:      0.7,
			MaxNodes:           8,
			DegradeWillingFrac: 0.9,
		}
	},
	Request: func(run *ScenarioRun, i int, a Arrival) core.Request {
		req := run.DefaultRequest(i, a)
		tenant := i % 8
		req.Client = fmt.Sprintf("tenant-%02d", tenant)
		if limit := economicBudget(tenant); limit > 0 {
			acct := run.Account(req.Client, limit)
			remaining := acct.Remaining()
			if remaining <= 0 {
				remaining = 0.01 // exhausted: any priced offer is over budget
			}
			req.Budget = remaining
		}
		return req
	},
	OnOffer: func(run *ScenarioRun, i int, a Arrival, offer *core.Offer) OfferAction {
		tenant := fmt.Sprintf("tenant-%02d", i%8)
		limit := economicBudget(i % 8)
		if limit == 0 {
			return OfferAccept
		}
		acct := run.Account(tenant, limit)
		if !acct.Debit(offer.Price) {
			run.Extra("budget_refusals", 1)
			return OfferReject
		}
		run.Extra("spend_"+tenant, offer.Price)
		return OfferAccept
	},
	Verify: func(o *Outcome) error {
		// A capped tenant hitting its limit shows up in one of two ways:
		// the broker rejects pre-offer because even the floor price
		// exceeds the remaining budget (over_budget_rejects), or the
		// client-side debit of an offered price fails (budget_refusals).
		// Budget threading makes the broker fit offers to the budget, so
		// the pre-offer reject is the common path.
		if o.Scenario.Extras["over_budget_rejects"]+o.Scenario.Extras["budget_refusals"] == 0 {
			return fmt.Errorf("no tenant ever hit its budget: the economic pressure is missing")
		}
		if o.Degradations == 0 {
			return fmt.Errorf("no degradations under contention: pricing never drove adaptation")
		}
		if o.Revenue <= 0 {
			return fmt.Errorf("net revenue %.2f: the provider earned nothing", o.Revenue)
		}
		for t := 0; t < 4; t++ {
			key := fmt.Sprintf("spend_tenant-%02d", t)
			if spent := o.Scenario.Extras[key]; spent > economicBudget(t)+1e-6 {
				return fmt.Errorf("%s spent %.2f over its %.0f budget", key, spent, economicBudget(t))
			}
		}
		return nil
	},
}

var builtinScenarios = []Scenario{
	diurnal,
	flashCrowd,
	tenantMix,
	renegStorm,
	leaseChurn,
	economic,
}
