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

// Policy abstracts the capacity-allocation policy a trace is replayed
// against, so the adaptive scheme can be compared with baselines on
// identical arrivals.
type Policy interface {
	// AllocateGuaranteed admits guaranteed/controlled demand; it reports
	// success.
	AllocateGuaranteed(id string, c, floor resource.Capacity) bool
	// AllocateBestEffort admits best-effort demand.
	AllocateBestEffort(id string, c resource.Capacity) bool
	ReleaseGuaranteed(id string)
	ReleaseBestEffort(id string)
	// SetOffline reports failed capacity to the policy and returns
	// whether any existing guarantee was broken by the failure.
	SetOffline(c resource.Capacity) bool
	// Used and Online report instantaneous capacity for utilization
	// sampling.
	Used() resource.Capacity
	Online() resource.Capacity
}

// AdaptivePolicy wraps the paper's Algorithm-1 allocator.
type AdaptivePolicy struct {
	A *core.Allocator
}

// NewAdaptivePolicy builds the paper's policy over a plan.
func NewAdaptivePolicy(plan core.CapacityPlan) (*AdaptivePolicy, error) {
	a, err := core.NewAllocator(plan)
	if err != nil {
		return nil, err
	}
	return &AdaptivePolicy{A: a}, nil
}

// AllocateGuaranteed implements Policy.
func (p *AdaptivePolicy) AllocateGuaranteed(id string, c, floor resource.Capacity) bool {
	_, err := p.A.AllocateGuaranteed(id, c, floor)
	return err == nil
}

// AllocateBestEffort implements Policy.
func (p *AdaptivePolicy) AllocateBestEffort(id string, c resource.Capacity) bool {
	return p.A.AllocateBestEffort(id, c) == nil
}

// ReleaseGuaranteed implements Policy.
func (p *AdaptivePolicy) ReleaseGuaranteed(id string) { _ = p.A.ReleaseGuaranteed(id) }

// ReleaseBestEffort implements Policy.
func (p *AdaptivePolicy) ReleaseBestEffort(id string) { _ = p.A.ReleaseBestEffort(id) }

// SetOffline implements Policy: a guarantee breaks when guaranteed demand
// no longer fits C_G_eff + C_A.
func (p *AdaptivePolicy) SetOffline(c resource.Capacity) bool {
	p.A.SetOffline(c)
	var gDemand resource.Capacity
	for _, u := range p.A.GuaranteedUsers() {
		if g, ok := p.A.GuaranteedAllocation(u); ok {
			gDemand = gDemand.Add(g)
		}
	}
	plan := p.A.Plan()
	gMax := plan.Guaranteed.Sub(p.A.Offline()).ClampMin(resource.Capacity{}).Add(plan.Adaptive)
	return !gDemand.FitsIn(gMax)
}

// Used implements Policy.
func (p *AdaptivePolicy) Used() resource.Capacity {
	online := p.Online()
	var used resource.Capacity
	for _, k := range resource.Kinds {
		used = used.With(k, p.A.Utilization().Get(k)*online.Get(k))
	}
	return used
}

// Online implements Policy.
func (p *AdaptivePolicy) Online() resource.Capacity {
	return p.A.Plan().Total().Sub(p.A.Offline()).ClampMin(resource.Capacity{})
}

// StaticPolicy is the no-adaptation baseline: rigid partitions (guaranteed
// demand only ever uses C_G, best effort only C_B, the adaptive share is
// permanently idle headroom) — what Algorithm 1's "dynamic property"
// claims to beat.
type StaticPolicy struct {
	plan       core.CapacityPlan
	offline    resource.Capacity
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

// AllocateGuaranteed implements Policy: only C_G (minus failures) serves
// guaranteed demand.
func (p *StaticPolicy) AllocateGuaranteed(id string, c, _ resource.Capacity) bool {
	gEff := p.plan.Guaranteed.Sub(p.offline).ClampMin(resource.Capacity{})
	if !sum(p.guaranteed).Add(c).FitsIn(gEff) {
		return false
	}
	p.guaranteed[id] = c
	return true
}

// AllocateBestEffort implements Policy: only C_B serves best effort.
func (p *StaticPolicy) AllocateBestEffort(id string, c resource.Capacity) bool {
	if !sum(p.bestEffort).Add(c).FitsIn(p.plan.BestEffort) {
		return false
	}
	p.bestEffort[id] = p.bestEffort[id].Add(c)
	return true
}

// ReleaseGuaranteed implements Policy.
func (p *StaticPolicy) ReleaseGuaranteed(id string) { delete(p.guaranteed, id) }

// ReleaseBestEffort implements Policy.
func (p *StaticPolicy) ReleaseBestEffort(id string) { delete(p.bestEffort, id) }

// SetOffline implements Policy.
func (p *StaticPolicy) SetOffline(c resource.Capacity) bool {
	p.offline = c.Min(p.plan.Guaranteed)
	gEff := p.plan.Guaranteed.Sub(p.offline).ClampMin(resource.Capacity{})
	return !sum(p.guaranteed).FitsIn(gEff)
}

// Used implements Policy.
func (p *StaticPolicy) Used() resource.Capacity {
	return sum(p.guaranteed).Add(sum(p.bestEffort))
}

// Online implements Policy.
func (p *StaticPolicy) Online() resource.Capacity {
	return p.plan.Total().Sub(p.offline).ClampMin(resource.Capacity{})
}

// ReplayStats aggregates a trace replay.
type ReplayStats struct {
	Arrivals        int
	Admitted        int
	Rejected        int
	AdmittedByClass map[sla.Class]int
	RejectedByClass map[sla.Class]int
	// MeanUtilization is the time-weighted mean CPU utilization.
	MeanUtilization float64
	// BrokenGuarantees counts failure events that left guaranteed
	// demand uncoverable.
	BrokenGuarantees int
}

// AdmissionRate is Admitted/Arrivals.
func (s ReplayStats) AdmissionRate() float64 {
	if s.Arrivals == 0 {
		return 0
	}
	return float64(s.Admitted) / float64(s.Arrivals)
}

// FailureEvent schedules capacity going offline during a replay.
type FailureEvent struct {
	At       time.Duration
	Offline  resource.Capacity // cumulative offline capacity from At
	Duration time.Duration
}

// Replay runs a trace against a policy, sampling utilization at every
// event boundary (arrivals, departures, failures) weighted by elapsed
// time. Guaranteed and controlled-load arrivals use AllocateGuaranteed
// (controlled-load floors at half the request); best-effort arrivals use
// AllocateBestEffort.
func Replay(trace []Arrival, policy Policy, failures []FailureEvent) ReplayStats {
	type event struct {
		at   time.Duration
		kind int // 0 arrival, 1 departure, 2 failure-start, 3 failure-end
		idx  int
	}
	var events []event
	for i, a := range trace {
		events = append(events, event{at: a.At, kind: 0, idx: i})
	}
	for i, f := range failures {
		events = append(events, event{at: f.At, kind: 2, idx: i})
		events = append(events, event{at: f.At + f.Duration, kind: 3, idx: i})
	}
	// Departures are appended dynamically on admission.
	stats := ReplayStats{
		AdmittedByClass: make(map[sla.Class]int),
		RejectedByClass: make(map[sla.Class]int),
	}
	admitted := make(map[int]bool)

	sortEvents := func() {
		sort.SliceStable(events, func(i, j int) bool { return events[i].at < events[j].at })
	}
	sortEvents()

	var (
		lastAt   time.Duration
		utilArea float64
	)
	sample := func(now time.Duration) {
		dt := (now - lastAt).Hours()
		if dt > 0 {
			online := policy.Online().CPU
			if online > 0 {
				utilArea += dt * math.Min(1, policy.Used().CPU/online)
			}
			lastAt = now
		}
	}

	for qi := 0; qi < len(events); qi++ {
		ev := events[qi]
		sample(ev.at)
		switch ev.kind {
		case 0: // arrival
			a := trace[ev.idx]
			stats.Arrivals++
			id := idOf(ev.idx)
			var ok bool
			switch a.Class {
			case sla.ClassBestEffort:
				ok = policy.AllocateBestEffort(id, resource.Nodes(a.Nodes))
			case sla.ClassControlledLoad:
				floor := resource.Nodes(math.Max(1, math.Floor(a.Nodes/2)))
				ok = policy.AllocateGuaranteed(id, resource.Nodes(a.Nodes), floor)
			default:
				ok = policy.AllocateGuaranteed(id, resource.Nodes(a.Nodes), resource.Nodes(a.Nodes))
			}
			if ok {
				stats.Admitted++
				stats.AdmittedByClass[a.Class]++
				admitted[ev.idx] = true
				events = append(events, event{at: a.At + a.Hold, kind: 1, idx: ev.idx})
				sortEvents()
			} else {
				stats.Rejected++
				stats.RejectedByClass[a.Class]++
			}
		case 1: // departure
			if !admitted[ev.idx] {
				break
			}
			a := trace[ev.idx]
			id := idOf(ev.idx)
			if a.Class == sla.ClassBestEffort {
				policy.ReleaseBestEffort(id)
			} else {
				policy.ReleaseGuaranteed(id)
			}
		case 2: // failure start
			if policy.SetOffline(failures[ev.idx].Offline) {
				stats.BrokenGuarantees++
			}
		case 3: // failure end
			policy.SetOffline(resource.Capacity{})
		}
	}
	if lastAt > 0 {
		stats.MeanUtilization = utilArea / lastAt.Hours()
	}
	return stats
}

func idOf(i int) string {
	return "u" + strconv.Itoa(i)
}
