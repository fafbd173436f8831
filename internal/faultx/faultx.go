// Package faultx is a deterministic, stdlib-only fault-injection layer.
// A seeded Injector sits at named call sites ("gara.create",
// "nrm.reserve", "soapx.client", ...) between the broker and its
// substrate — GARA reservation managers, the NRM bandwidth broker, DSRT
// admission, GRAM submission, the SOAP transport — and decides, per
// call, whether the operation fails and how:
//
//   - Error: the call fails immediately, the operation never runs.
//   - Latency: the call succeeds but a virtual latency is recorded
//     (virtual because deterministic harnesses run on a manual clock;
//     nothing actually sleeps).
//   - Hang: the call hangs until the caller's deadline. In the default
//     synchronous form the injector returns ErrHang at once and the
//     retry policy accounts a full per-attempt timeout; with
//     Plan.BlockOnHang the operation really blocks on a channel until
//     ReleaseHangs, which is what a wall-clock timeout regression test
//     needs.
//   - Partial: the operation RUNS and commits its side effect, then the
//     reply is "lost" — the caller sees an error anyway. This is the
//     fault that exercises orphan adoption and refund/teardown
//     reconciliation.
//   - Crash: the site goes down for Plan.CrashFor of clock time; every
//     call fails fast with ErrCrashed until the clock passes the
//     recovery point.
//
// Determinism: decisions come from a single seeded PRNG guarded by a
// mutex, and crash recovery is a pure function of the injected clock.
// Replaying the same serial call sequence with the same seed reproduces
// the same faults bit-for-bit. All methods are safe on a nil *Injector
// (no faults, zero overhead beyond a nil check), so substrate hooks can
// be installed unconditionally.
package faultx

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	"gqosm/internal/clockx"
)

// ErrInjected is the root of every injected failure; retry policies
// treat errors.Is(err, ErrInjected) as transient.
var ErrInjected = errors.New("faultx: injected fault")

// ErrCrashed marks calls failed fast because the site is down. It wraps
// ErrInjected.
var ErrCrashed = fmt.Errorf("site crashed: %w", ErrInjected)

// ErrHang marks a synchronous hang-until-deadline fault: the caller's
// retry policy should account a full per-attempt timeout for it. It
// wraps ErrInjected.
var ErrHang = fmt.Errorf("call hung until deadline: %w", ErrInjected)

// Kind enumerates the fault taxonomy.
type Kind int

// Fault kinds.
const (
	KindError Kind = iota + 1
	KindLatency
	KindHang
	KindPartial
	KindCrash
)

// String returns the kind's report name.
func (k Kind) String() string {
	switch k {
	case KindError:
		return "error"
	case KindLatency:
		return "latency"
	case KindHang:
		return "hang"
	case KindPartial:
		return "partial"
	case KindCrash:
		return "crash"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// AllKinds is the full taxonomy, the default mix for a Plan that does
// not name its kinds.
var AllKinds = []Kind{KindError, KindLatency, KindHang, KindPartial, KindCrash}

const (
	// virtualLatency is the delay a KindLatency fault records.
	virtualLatency = 50 * time.Millisecond
	// DefCrashFor is Plan.CrashFor when left zero.
	DefCrashFor = 10 * time.Minute
)

// Plan configures injection at one site (or, as the default plan, at
// every site without its own).
type Plan struct {
	// Rate is the per-call fault probability in [0,1]. Zero disables
	// injection (and consumes no randomness, keeping schedules stable).
	Rate float64
	// Kinds is the uniform mix drawn from when a fault fires; empty
	// means AllKinds.
	Kinds []Kind
	// CrashFor is how long a KindCrash keeps the site down in clock
	// time (default DefCrashFor).
	CrashFor time.Duration
	// BlockOnHang makes KindHang really block the calling goroutine on
	// a channel until ReleaseHangs, instead of returning ErrHang
	// synchronously. Only wall-clock timeout tests want this.
	BlockOnHang bool
}

// Injector decides and applies faults. Construct with New; a nil
// *Injector injects nothing.
type Injector struct {
	clock clockx.Clock

	mu       sync.Mutex
	rng      *rand.Rand
	enabled  bool
	def      Plan
	plans    map[string]Plan
	down     map[string]time.Time // site -> recovery deadline
	byKind   map[Kind]int64
	virtual  []time.Duration // recorded virtual latencies
	hangs    []chan struct{} // outstanding BlockOnHang releases
	released bool
}

// New returns an enabled injector with no plans. clock drives crash
// recovery and may be a clockx.Manual for deterministic harnesses; nil
// means the real clock.
func New(seed int64, clock clockx.Clock) *Injector {
	if clock == nil {
		clock = clockx.Real()
	}
	return &Injector{
		clock:   clock,
		rng:     rand.New(rand.NewSource(seed)),
		enabled: true,
		plans:   make(map[string]Plan),
		down:    make(map[string]time.Time),
		byKind:  make(map[Kind]int64),
	}
}

// SetDefault installs the plan used by sites without a specific one.
func (i *Injector) SetDefault(p Plan) {
	if i == nil {
		return
	}
	i.mu.Lock()
	defer i.mu.Unlock()
	i.def = p
}

// SetPlan installs a site-specific plan.
func (i *Injector) SetPlan(site string, p Plan) {
	if i == nil {
		return
	}
	i.mu.Lock()
	defer i.mu.Unlock()
	i.plans[site] = p
}

// SetEnabled turns injection on or off globally (faults already in
// effect — a crashed site's downtime — still apply via the clock).
// Disabling also clears pending crash windows so a drain sees a healthy
// substrate.
func (i *Injector) SetEnabled(on bool) {
	if i == nil {
		return
	}
	i.mu.Lock()
	defer i.mu.Unlock()
	i.enabled = on
	if !on {
		i.down = make(map[string]time.Time)
	}
}

// ReleaseHangs unblocks every goroutine parked by a BlockOnHang fault,
// now and in the future.
func (i *Injector) ReleaseHangs() {
	if i == nil {
		return
	}
	i.mu.Lock()
	defer i.mu.Unlock()
	for _, ch := range i.hangs {
		close(ch)
	}
	i.hangs = nil
	i.released = true
}

// RecordVirtual adds d to the virtual latency accounting; retry
// policies call it when they charge a timeout against a hung attempt.
func (i *Injector) RecordVirtual(d time.Duration) {
	if i == nil {
		return
	}
	i.mu.Lock()
	defer i.mu.Unlock()
	i.virtual = append(i.virtual, d)
}

// VirtualP95MS returns the 95th percentile (nearest-rank) of recorded
// virtual latencies, in milliseconds. Zero when nothing was recorded.
func (i *Injector) VirtualP95MS() float64 {
	if i == nil {
		return 0
	}
	i.mu.Lock()
	defer i.mu.Unlock()
	n := len(i.virtual)
	if n == 0 {
		return 0
	}
	vs := append([]time.Duration(nil), i.virtual...)
	sort.Slice(vs, func(a, b int) bool { return vs[a] < vs[b] })
	rank := (95*n + 99) / 100 // ceil(0.95n), 1-based
	if rank < 1 {
		rank = 1
	}
	return float64(vs[rank-1]) / float64(time.Millisecond)
}

// CountsByKind returns how many faults of each kind were injected,
// keyed by Kind.String().
func (i *Injector) CountsByKind() map[string]int64 {
	out := make(map[string]int64)
	if i == nil {
		return out
	}
	i.mu.Lock()
	defer i.mu.Unlock()
	for k, n := range i.byKind {
		out[k.String()] = n
	}
	return out
}

// Total returns the total number of injected faults.
func (i *Injector) Total() int64 {
	if i == nil {
		return 0
	}
	i.mu.Lock()
	defer i.mu.Unlock()
	var t int64
	for _, n := range i.byKind {
		t += n
	}
	return t
}

// decision is the resolved outcome of one call at one site.
type decision struct {
	kind  Kind
	block chan struct{} // non-nil: really block on it (BlockOnHang)
}

// decide rolls the site's plan. It holds the mutex for the whole roll
// so concurrent callers serialize on the single PRNG.
func (i *Injector) decide(site string) decision {
	i.mu.Lock()
	defer i.mu.Unlock()

	// A crashed site stays down — and fails fast — until the clock
	// passes its recovery point, whether or not injection of new faults
	// is still enabled.
	if until, ok := i.down[site]; ok {
		if i.clock.Now().Before(until) {
			i.byKind[KindCrash]++
			return decision{kind: KindCrash}
		}
		delete(i.down, site)
	}
	if !i.enabled {
		return decision{}
	}
	p, ok := i.plans[site]
	if !ok {
		p = i.def
	}
	if p.Rate <= 0 {
		return decision{}
	}
	if i.rng.Float64() >= p.Rate {
		return decision{}
	}
	kinds := p.Kinds
	if len(kinds) == 0 {
		kinds = AllKinds
	}
	k := kinds[i.rng.Intn(len(kinds))]
	i.byKind[k]++
	d := decision{kind: k}
	switch k {
	case KindLatency:
		i.virtual = append(i.virtual, virtualLatency)
	case KindHang:
		if p.BlockOnHang && !i.released {
			d.block = make(chan struct{})
			i.hangs = append(i.hangs, d.block)
		}
	case KindCrash:
		crashFor := p.CrashFor
		if crashFor <= 0 {
			crashFor = DefCrashFor
		}
		i.down[site] = i.clock.Now().Add(crashFor)
	}
	return d
}

// Do runs op at site under the injector's fault plan. With no fault the
// call is transparent. Safe on a nil receiver (runs op directly).
func (i *Injector) Do(site string, op func() error) error {
	if i == nil {
		return op()
	}
	d := i.decide(site)
	switch d.kind {
	case 0:
		return op()
	case KindError:
		return fmt.Errorf("faultx: %s: %w", site, ErrInjected)
	case KindLatency:
		// The latency is virtual — recorded in decide, never slept —
		// so manual-clock harnesses stay deterministic. The operation
		// itself succeeds.
		return op()
	case KindHang:
		if d.block != nil {
			<-d.block
		}
		return fmt.Errorf("faultx: %s: %w", site, ErrHang)
	case KindPartial:
		// The side effect commits; only the reply is lost.
		if err := op(); err != nil {
			return err
		}
		return fmt.Errorf("faultx: %s: reply lost after commit: %w", site, ErrInjected)
	case KindCrash:
		return fmt.Errorf("faultx: %s: %w", site, ErrCrashed)
	default:
		return op()
	}
}
