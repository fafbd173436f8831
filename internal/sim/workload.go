package sim

import (
	"math"
	"math/rand"
	"sort"
	"strconv"
	"time"

	"gqosm/internal/core"
	"gqosm/internal/resource"
	"gqosm/internal/sla"
)

// Workload parameterizes a synthetic arrival trace: Poisson arrivals with
// exponential holding times and a configurable class mix — the stand-in
// for the paper's unavailable testbed traffic.
type Workload struct {
	// Seed makes the trace deterministic.
	Seed int64
	// ArrivalPerHour is the Poisson arrival rate λ.
	ArrivalPerHour float64
	// Duration is the simulated span.
	Duration time.Duration
	// GuaranteedFrac and ControlledFrac set the class mix; the rest is
	// best effort.
	GuaranteedFrac, ControlledFrac float64
	// MeanHoldHours is the mean exponential session length.
	MeanHoldHours float64
	// MaxNodes bounds the per-request node count (uniform 1..MaxNodes).
	MaxNodes int
	// DegradeWillingFrac is the fraction of negotiated sessions that
	// accept degradation (scenario-1 volunteers).
	DegradeWillingFrac float64
	// Rate, when non-nil, makes arrivals a nonhomogeneous Poisson
	// process: it returns the instantaneous rate (arrivals/hour) at an
	// offset from trace start. Generation uses thinning — candidates
	// arrive at RateMax and are kept with probability Rate(at)/RateMax —
	// so RateMax must bound Rate from above everywhere (values above it
	// are effectively clamped). Nil keeps the historical homogeneous
	// process at ArrivalPerHour, drawing the exact same per-seed trace
	// as before the field existed.
	Rate func(at time.Duration) float64
	// RateMax is the thinning bound; it defaults to ArrivalPerHour.
	RateMax float64
}

func (w Workload) withDefaults() Workload {
	if w.ArrivalPerHour <= 0 {
		w.ArrivalPerHour = 6
	}
	if w.Duration <= 0 {
		w.Duration = 24 * time.Hour
	}
	if w.MeanHoldHours <= 0 {
		w.MeanHoldHours = 2
	}
	if w.MaxNodes <= 0 {
		w.MaxNodes = 8
	}
	return w
}

// Arrival is one entry of a generated trace.
type Arrival struct {
	At    time.Duration // offset from the trace start
	Class sla.Class
	Nodes float64
	Hold  time.Duration
	// Willing marks scenario-1 volunteers (negotiated classes only).
	Willing bool
}

// Trace generates the deterministic arrival list for the workload.
func (w Workload) Trace() []Arrival {
	w = w.withDefaults()
	rng := rand.New(rand.NewSource(w.Seed))
	rateMax := w.ArrivalPerHour
	if w.Rate != nil && w.RateMax > 0 {
		rateMax = w.RateMax
	}
	var (
		out []Arrival
		at  time.Duration
	)
	for {
		gap := time.Duration(rng.ExpFloat64() / rateMax * float64(time.Hour))
		at += gap
		if at >= w.Duration {
			break
		}
		if w.Rate != nil && rng.Float64()*rateMax > w.Rate(at) {
			continue // thinned candidate of the majorizing process
		}
		class := sla.ClassBestEffort
		switch p := rng.Float64(); {
		case p < w.GuaranteedFrac:
			class = sla.ClassGuaranteed
		case p < w.GuaranteedFrac+w.ControlledFrac:
			class = sla.ClassControlledLoad
		}
		hold := time.Duration(rng.ExpFloat64() * w.MeanHoldHours * float64(time.Hour))
		if hold < time.Minute {
			hold = time.Minute
		}
		out = append(out, Arrival{
			At:      at,
			Class:   class,
			Nodes:   float64(1 + rng.Intn(w.MaxNodes)),
			Hold:    hold,
			Willing: rng.Float64() < w.DegradeWillingFrac,
		})
	}
	return out
}

// StaticPolicy is the no-adaptation baseline: rigid partitions (guaranteed
// demand only ever uses C_G, best effort only C_B, the adaptive share is
// permanently idle headroom) — what Algorithm 1's "dynamic property"
// claims to beat. It is the one thing the broker is not (the broker's
// best effort always borrows), so it stays a model, replayed by Replay.
type StaticPolicy struct {
	plan       core.CapacityPlan
	guaranteed map[string]resource.Capacity
	bestEffort map[string]resource.Capacity
}

// NewStaticPolicy builds the baseline over a plan.
func NewStaticPolicy(plan core.CapacityPlan) *StaticPolicy {
	return &StaticPolicy{
		plan:       plan,
		guaranteed: make(map[string]resource.Capacity),
		bestEffort: make(map[string]resource.Capacity),
	}
}

func sum(m map[string]resource.Capacity) resource.Capacity {
	var s resource.Capacity
	for _, c := range m {
		s = s.Add(c)
	}
	return s
}

// AllocateGuaranteed admits guaranteed and controlled-load demand: only
// C_G serves it.
func (p *StaticPolicy) AllocateGuaranteed(id string, c resource.Capacity) bool {
	if !sum(p.guaranteed).Add(c).FitsIn(p.plan.Guaranteed) {
		return false
	}
	p.guaranteed[id] = c
	return true
}

// AllocateBestEffort admits best-effort demand: only C_B serves it.
func (p *StaticPolicy) AllocateBestEffort(id string, c resource.Capacity) bool {
	if !sum(p.bestEffort).Add(c).FitsIn(p.plan.BestEffort) {
		return false
	}
	p.bestEffort[id] = p.bestEffort[id].Add(c)
	return true
}

// ReleaseGuaranteed ends a guaranteed or controlled-load grant.
func (p *StaticPolicy) ReleaseGuaranteed(id string) { delete(p.guaranteed, id) }

// ReleaseBestEffort ends a best-effort grant.
func (p *StaticPolicy) ReleaseBestEffort(id string) { delete(p.bestEffort, id) }

// Used reports the capacity held right now.
func (p *StaticPolicy) Used() resource.Capacity {
	return sum(p.guaranteed).Add(sum(p.bestEffort))
}

// ReplayStats aggregates a trace replay.
type ReplayStats struct {
	Arrivals int
	Admitted int
	// MeanUtilization is the time-weighted mean CPU utilization.
	MeanUtilization float64
}

// AdmissionRate is Admitted/Arrivals.
func (s ReplayStats) AdmissionRate() float64 {
	if s.Arrivals == 0 {
		return 0
	}
	return float64(s.Admitted) / float64(s.Arrivals)
}

// Replay runs a trace against the rigid-partition reference, sampling
// utilization at every event boundary (arrivals and departures) weighted
// by elapsed time. Guaranteed and controlled-load arrivals ask C_G for
// their full node count (the rigid partition never degrades); best-effort
// arrivals ask C_B.
func Replay(trace []Arrival, policy *StaticPolicy) ReplayStats {
	type event struct {
		at        time.Duration
		departure bool
		idx       int
	}
	var events []event
	for i, a := range trace {
		events = append(events, event{at: a.At, idx: i})
	}
	// Departures are appended dynamically on admission.
	var stats ReplayStats
	sortEvents := func() {
		sort.SliceStable(events, func(i, j int) bool { return events[i].at < events[j].at })
	}
	sortEvents()

	var (
		lastAt   time.Duration
		utilArea float64
	)
	online := policy.plan.Total().CPU
	sample := func(now time.Duration) {
		if dt := (now - lastAt).Hours(); dt > 0 {
			if online > 0 {
				utilArea += dt * math.Min(1, policy.Used().CPU/online)
			}
			lastAt = now
		}
	}

	for qi := 0; qi < len(events); qi++ {
		ev := events[qi]
		sample(ev.at)
		a := trace[ev.idx]
		id := strconv.Itoa(ev.idx)
		switch {
		case ev.departure && a.Class == sla.ClassBestEffort:
			policy.ReleaseBestEffort(id)
		case ev.departure:
			policy.ReleaseGuaranteed(id)
		default:
			stats.Arrivals++
			var ok bool
			if a.Class == sla.ClassBestEffort {
				ok = policy.AllocateBestEffort(id, resource.Nodes(a.Nodes))
			} else {
				ok = policy.AllocateGuaranteed(id, resource.Nodes(a.Nodes))
			}
			if ok {
				stats.Admitted++
				events = append(events, event{at: a.At + a.Hold, departure: true, idx: ev.idx})
				sortEvents()
			}
		}
	}
	if lastAt > 0 {
		stats.MeanUtilization = utilArea / lastAt.Hours()
	}
	return stats
}
