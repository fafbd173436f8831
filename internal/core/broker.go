package core

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"gqosm/internal/clockx"
	"gqosm/internal/faultx"
	"gqosm/internal/gara"
	"gqosm/internal/gram"
	"gqosm/internal/mds"
	"gqosm/internal/nrm"
	"gqosm/internal/obs"
	"gqosm/internal/pricing"
	"gqosm/internal/registry"
	"gqosm/internal/resource"
	"gqosm/internal/sla"
	"gqosm/internal/wal"
)

// Broker errors.
var (
	// ErrNoService is returned when discovery finds no matching service.
	ErrNoService = errors.New("core: no service matches the request")
	// ErrOverBudget is returned when even the floor quality exceeds the
	// client's budget.
	ErrOverBudget = errors.New("core: request exceeds client budget")
	// ErrUnknownSession is returned for operations on unknown SLA IDs.
	ErrUnknownSession = errors.New("core: unknown session")
	// ErrBadState is returned when an operation does not apply to the
	// session's lifecycle state.
	ErrBadState = errors.New("core: operation invalid in current session state")
	// ErrClosed is returned after the broker shuts down.
	ErrClosed = errors.New("core: broker closed")
)

// Finder is the discovery dependency (satisfied by *registry.Registry and
// *registry.Client).
type Finder interface {
	Find(q registry.Query) ([]*registry.Service, error)
}

// DefEventLogCap bounds the broker activity log when Config.EventLogCap
// is unset: enough to hold the recent history of a busy domain while
// keeping the ring's footprint fixed.
const DefEventLogCap = 8192

// Config assembles a Broker.
type Config struct {
	// Domain names the administrative domain the broker serves.
	Domain string
	// Clock drives timeouts and timestamps; defaults to the real clock.
	Clock clockx.Clock
	// Plan is the Algorithm-1 capacity partition (required).
	Plan CapacityPlan
	// Shards partitions the domain into that many independent
	// plan/allocator/session shards (see shard.go); 0 or 1 keeps the
	// classic single-shard broker. The plan is split evenly across
	// shards.
	Shards int
	// Registry performs service discovery; nil skips discovery (the
	// request's Service name is taken at face value).
	Registry Finder
	// DisableCaches turns the hot-path discovery cache off, restoring a
	// registry Find on every admission. The cache only engages when
	// Registry implements Generation() uint64 (the in-process registry
	// does; the SOAP client does not), so this is a diagnostic/benchmark
	// switch, not a correctness one.
	DisableCaches bool
	// GARA performs resource reservations (required).
	GARA *gara.System
	// GRAM runs services; nil disables Invoke.
	GRAM *gram.Manager
	// NRM provides network measurements and degradation notifications;
	// optional.
	NRM *nrm.Manager
	// MDS provides CPU status for conformance tests; optional.
	MDS *mds.Directory
	// RM is the resource-manager-level adaptation hook tried before any
	// AQoS-level adaptation on degradation (§3.2); optional.
	RM RMAdapter
	// ConfirmWindow is how long a proposed SLA's temporary reservation
	// is held before automatic cancellation (§3.1); default 2 minutes.
	ConfirmWindow time.Duration
	// MinOptimizerGain is the "considerable gain" threshold: the
	// optimizer's reallocation is applied only when it improves profit
	// by at least this amount (default 1.0).
	MinOptimizerGain float64
	// EventLogCap bounds the activity log ring (default DefEventLogCap).
	// When the ring is full the oldest events are evicted.
	EventLogCap int
	// Obs receives the broker's metrics and lifecycle traces. Nil
	// creates a private registry, so instrumentation is always live and
	// reachable through Broker.Obs().
	Obs *obs.Registry
	// Faults injects failures at the broker's RM-facing call sites
	// ("gara.create", "gara.modify", "gara.cancel", "gara.bind",
	// "rm.rectify", "peer.request"); nil injects nothing.
	Faults *faultx.Injector
	// RMPolicy bounds RM-facing calls (retries, per-attempt timeout,
	// backoff). The zero value is a single attempt with no deadline —
	// the historical direct-call behavior.
	RMPolicy RetryPolicy
	// Durability enables the write-ahead lifecycle log (see durable.go).
	// The zero value keeps the historical in-memory-only broker.
	Durability DurabilityConfig
	// Intake puts the group-commit queue (see intake.go) in front of the
	// admission pipeline. The zero value admits each RequestService
	// inline on its caller's goroutine.
	Intake IntakeConfig
	// Policy names the adaptation policy (see adaptpolicy.go) answering
	// Algorithm-1 partition grants. Empty selects "paper", the admission
	// rule from the source paper.
	Policy string
	// ShadowPolicy, when set, names a candidate policy consulted at every
	// partition grant against the same values-only view the active
	// policy sees. Divergence is counted in
	// gqosm_shadow_divergence_total{family="partition"}; live decisions
	// are never affected.
	ShadowPolicy string
}

// Event is one entry of the broker activity log (the Fig. 6 console).
type Event struct {
	At   time.Time
	Kind string
	SLA  sla.ID
	Msg  string
}

// String renders the event as a log line.
func (e Event) String() string {
	if e.SLA != "" {
		return fmt.Sprintf("%s [%s] (%s) %s", e.At.Format("15:04:05"), e.Kind, e.SLA, e.Msg)
	}
	return fmt.Sprintf("%s [%s] %s", e.At.Format("15:04:05"), e.Kind, e.Msg)
}

// session is the broker's live state for one SLA.
type session struct {
	doc     *sla.Document
	handle  gara.Handle
	confirm clockx.Timer // pending auto-cancel while proposed
	job     gram.JobID
	// original is the allocation before any degradation, for scenario-3
	// restoration and scenario-2(a) upgrades.
	original resource.Capacity
	// degraded marks sessions running below their negotiated quality.
	degraded bool
	// moving marks a reallocate between its allocator grant and its
	// commit, where the shard lock is dropped; a second move is refused.
	moving bool
	// violations counts detected SLA violations.
	violations int
	// proposedAt is when the offer was made; the lifecycle oracle's
	// stale-proposal rule checks it against the confirm window.
	proposedAt time.Time
}

// Broker is the AQoS broker: "the main focus of the system … required to
// interact with clients, RMs, NRMs and neighboring AQoSs. The AQoS also
// negotiates SLAs with clients and communicates parameters associated with
// an SLA to the corresponding resource manager. The AQoS is responsible
// for ensuring SLA conformance to allocated resources, and provides
// support for parameter adaptation when a SLA violation is detected"
// (§2.1). All methods are safe for concurrent use.
//
// The broker is a coordinator over one or more shards (see shard.go).
// Per-session operations route through the shard that admitted the SLA
// (sh.mu → sh.alloc.mu → leaf locks); the coordinator itself owns only
// the global SLA counter (nextID), the routing table (routeMu), the
// best-effort pin table (beMu), the activity log ring (evMu) and the
// debug hook (debugMu) — all leaf locks, each with its own
// synchronization, so hot paths on different shards never contend.
// Components the broker calls while holding a shard lock (allocator,
// clock timer scheduling) never call back into the broker; components
// that do call back (NRM degradation callbacks, clock timer callbacks)
// always fire with no broker lock held.
type Broker struct {
	cfg    Config
	clock  clockx.Clock
	prices *pricing.Model
	ledger *pricing.Ledger
	obs    *obs.Registry
	met    brokerMetrics
	nextID atomic.Int64
	closed atomic.Bool

	// shards are the domain's Algorithm-1 partitions, indexed by shard.
	shards []*shard

	// routeMu guards route: SLA ID → admitting shard. Routes are
	// installed at admission and never removed (terminal sessions stay
	// queryable), so lookups are read-mostly.
	routeMu sync.RWMutex
	route   map[sla.ID]*shard

	// beMu guards beRoute: best-effort client → shard holding its
	// allocations. A client's best-effort capacity is pinned to one
	// shard so repeated grants and the final release balance.
	beMu    sync.Mutex
	beRoute map[string]*shard

	// evMu guards the activity log ring. It is a leaf lock: safe to take
	// with or without a shard lock held, never held while acquiring
	// another lock.
	evMu    sync.Mutex
	evBuf   []Event
	evNext  int   // index the next event is written to
	evTotal int64 // events ever logged, including evicted ones
	// evSnap caches the flattened, oldest-first snapshot Events() built
	// last time, valid while evTotal == evSnapTotal. It is immutable once
	// built — logf never writes into it, only into evBuf — so Events()
	// can hand it out shared instead of copying the whole ring on every
	// call (the invariant oracle reads it after every mutating op).
	evSnap      []Event
	evSnapTotal int64

	// debugMu guards debugHook, the optional post-operation invariant
	// check installed by SetDebugHook.
	debugMu   sync.Mutex
	debugHook func(*Broker) error

	// pol applies Config.RMPolicy (and fault injection) to RM-facing
	// calls; see retry.go.
	pol *policyRunner

	// fed, when set by Federation.Mount, is the federation the request
	// operation admits through (see ops.go).
	fed atomic.Pointer[Federation]

	// pcMu guards pendingCancels: reservations whose cancel exhausted
	// its retry budget, kept for ReconcileReservations. A leaf lock.
	pcMu           sync.Mutex
	pendingCancels map[sla.ID]gara.Handle

	// hoMu guards handoffs: the journaled session hand-off intent table
	// (see handoff.go). A leaf lock, safe under a shard lock.
	hoMu     sync.Mutex
	handoffs map[sla.ID]handoffIntent

	// dcache is the generation-stamped discovery cache (see
	// discovery_cache.go); nil when discovery is uncacheable (no
	// registry, a registry without a generation counter, or
	// Config.DisableCaches).
	dcache *discoveryCache

	// durable is the write-ahead lifecycle log; nil keeps every journal
	// site a no-op (the historical in-memory broker). See durable.go.
	durable *wal.Log

	// intake is the group-commit queue in front of admit; nil on brokers
	// built without Config.Intake.Enabled. See intake.go.
	intake *intake

	// recovering is true from the start of Recover until its RM
	// reconciliation sweep has finished. It gates the public
	// ReconcileReservations so a monitor that re-arms early cannot race
	// the recovery sweep (see recover.go).
	recovering atomic.Bool

	// policy is the active adaptation policy (never nil); shadowPol is
	// the shadow candidate, nil unless Config.ShadowPolicy named one.
	// Both are resolved once in newBroker and immutable afterwards.
	policy    Policy
	shadowPol Policy

	// shadowEvals / shadowDiv count shadow consultations and how many of
	// them diverged; registered only when a shadow policy is configured
	// so brokers without one expose exactly the historical metric set.
	shadowEvals, shadowDiv *obs.Counter
}

// shadowCounters resolves the shadow counter pair in reg: consultations,
// and those whose answer differed from the active policy's. The partition
// grant is the one decision behind Policy, hence the one family label.
func shadowCounters(reg *obs.Registry) (evals, diverged *obs.Counter) {
	return reg.Counter("gqosm_shadow_evaluations_total", "Shadow policy consultations at live decision points"),
		reg.Counter("gqosm_shadow_divergence_total", "Shadow decisions diverging from the active policy, by decision family", "family", "partition")
}

// ShadowCounts reads the shadow counter pair back out of a registry after
// a run (reading a counter that never incremented yields zero — the obs
// registry creates on first touch).
func ShadowCounts(reg *obs.Registry) (evals, diverged int64) {
	e, d := shadowCounters(reg)
	return e.Value(), d.Value()
}

// NewBroker assembles a broker from the config. When durability is
// enabled the WAL directory must not already hold state — a directory
// with history belongs to Recover, and silently starting fresh over it
// would fork the journal.
func NewBroker(cfg Config) (*Broker, error) {
	b, err := newBroker(cfg)
	if err != nil {
		return nil, err
	}
	if cfg.Durability.Dir != "" {
		if wal.HasState(cfg.Durability.Dir) {
			return nil, fmt.Errorf("core: WAL directory %s already holds state; use Recover", cfg.Durability.Dir)
		}
		log, _, err := wal.Open(b.walOptions())
		if err != nil {
			return nil, err
		}
		b.attachDurability(log)
	}
	return b, nil
}

// newBroker assembles the in-memory broker without touching any WAL
// state; NewBroker and Recover both build on it.
func newBroker(cfg Config) (*Broker, error) {
	if cfg.GARA == nil {
		return nil, errors.New("core: Config.GARA is required")
	}
	if err := cfg.Plan.Validate(); err != nil {
		return nil, err
	}
	if cfg.Shards <= 0 {
		cfg.Shards = 1
	}
	if cfg.Clock == nil {
		cfg.Clock = clockx.Real()
	}
	if cfg.ConfirmWindow <= 0 {
		cfg.ConfirmWindow = 2 * time.Minute
	}
	if cfg.MinOptimizerGain <= 0 {
		cfg.MinOptimizerGain = 1.0
	}
	if cfg.EventLogCap <= 0 {
		cfg.EventLogCap = DefEventLogCap
	}
	if cfg.Obs == nil {
		cfg.Obs = obs.NewRegistry()
	}
	policyName := cfg.Policy
	if policyName == "" {
		policyName = "paper"
	}
	policy, ok := LookupPolicy(policyName)
	if !ok {
		return nil, fmt.Errorf("core: unknown policy %q (registered: %s)", policyName, strings.Join(PolicyNames(), ", "))
	}
	var shadowPol Policy
	if cfg.ShadowPolicy != "" {
		shadowPol, ok = LookupPolicy(cfg.ShadowPolicy)
		if !ok {
			return nil, fmt.Errorf("core: unknown shadow policy %q (registered: %s)", cfg.ShadowPolicy, strings.Join(PolicyNames(), ", "))
		}
	}
	b := &Broker{
		cfg:            cfg,
		clock:          cfg.Clock,
		prices:         pricing.NewModel(pricing.DefaultRates),
		ledger:         pricing.NewLedger(),
		route:          make(map[sla.ID]*shard),
		beRoute:        make(map[string]*shard),
		evBuf:          make([]Event, 0, cfg.EventLogCap),
		obs:            cfg.Obs,
		pendingCancels: make(map[sla.ID]gara.Handle),
		handoffs:       make(map[sla.ID]handoffIntent),
		policy:         policy,
		shadowPol:      shadowPol,
	}
	if b.shadowPol != nil {
		b.shadowEvals, b.shadowDiv = shadowCounters(b.obs)
	}
	b.pol = newPolicyRunner(b, cfg.RMPolicy)
	if !cfg.DisableCaches {
		if gf, ok := cfg.Registry.(generationFinder); ok {
			b.dcache = newDiscoveryCache(gf, cfg.Obs)
		}
	}
	for i, plan := range cfg.Plan.Split(cfg.Shards) {
		alloc, err := NewAllocator(plan)
		if err != nil {
			return nil, fmt.Errorf("core: shard %d: %w", i, err)
		}
		alloc.SetPolicy(b.policy)
		if b.shadowPol != nil {
			alloc.SetShadow(b.shadowPol, b.recordShadow)
		}
		b.shards = append(b.shards, &shard{
			index:      i,
			alloc:      alloc,
			sessions:   make(map[sla.ID]*session),
			promotions: make(map[sla.ID]pricing.PromotionOffer),
		})
	}
	b.met = newBrokerMetrics(b.obs)
	b.registerGauges(b.obs)
	b.obs.GaugeFunc("gqosm_broker_pending_cancels",
		"Reservations awaiting a cancel retry after budget exhaustion",
		func() float64 { return float64(b.PendingCancels()) })
	if cfg.NRM != nil {
		cfg.NRM.Subscribe(b.onNetworkDegradation)
	}
	if cfg.Intake.Enabled {
		b.intake = newIntake(b, cfg.Intake, b.obs)
	}
	return b, nil
}

// Close cancels every pending confirmation timer and refuses further
// requests. Established sessions and their reservations are left intact
// (the broker does not own the resource managers' lifecycles). Shards are
// swept in index order, one lock at a time.
func (b *Broker) Close() {
	if !b.closed.CompareAndSwap(false, true) {
		return
	}
	if b.intake != nil {
		b.intake.close(ErrClosed)
	}
	for _, sh := range b.shards {
		sh.mu.Lock()
		for _, s := range sh.sessions {
			if s.confirm != nil {
				s.confirm.Stop()
				s.confirm = nil
			}
		}
		sh.mu.Unlock()
	}
	if b.durable != nil {
		// Every acknowledged append was already fsynced; sealing just
		// closes the segment. Recovery replays it like any other.
		b.durable.Seal()
	}
}

// Allocator exposes the Algorithm-1 engine of shard 0 (read-mostly:
// experiments snapshot pool usage through it). Single-shard brokers — the
// default — have exactly one; multi-shard callers use Allocators.
func (b *Broker) Allocator() *Allocator { return b.shards[0].alloc }

// recordShadow counts one shadow consultation. It is called with the
// allocator lock held, so it only touches atomic counters; it is installed
// (Allocator.SetShadow) only on a broker that has a shadow policy.
func (b *Broker) recordShadow(diverged bool) {
	b.shadowEvals.Inc()
	if diverged {
		b.shadowDiv.Inc()
	}
}

// PolicyName reports the active adaptation policy.
func (b *Broker) PolicyName() string { return b.policy.Name() }

// ShadowPolicyName reports the shadow candidate, or "" when shadowing is
// off.
func (b *Broker) ShadowPolicyName() string {
	if b.shadowPol == nil {
		return ""
	}
	return b.shadowPol.Name()
}

// PolicyReport describes the broker's policy configuration for the
// management API (qosctl policies).
type PolicyReport struct {
	Active   string   `json:"active"`
	Shadow   string   `json:"shadow,omitempty"`
	Policies []string `json:"policies"`
}

// Policies returns the active/shadow policy names plus the policy table.
func (b *Broker) Policies() PolicyReport {
	return PolicyReport{
		Active:   b.PolicyName(),
		Shadow:   b.ShadowPolicyName(),
		Policies: PolicyNames(),
	}
}

// Domain returns the administrative domain the broker serves.
func (b *Broker) Domain() string { return b.cfg.Domain }

// Recovering reports whether a Recover is still installing state and
// reconciling against the RMs; admissions are refused with
// ErrPeerUnavailable while it is true.
func (b *Broker) Recovering() bool { return b.recovering.Load() }

// LoadReport is a broker's self-report for front-tier placement: how
// loaded its guaranteed partitions are and how many sessions it hosts.
// It is its own wire document on both transports.
type LoadReport struct {
	// Domain names the reporting broker.
	Domain string `json:"domain" xml:"Domain"`
	// Sessions counts resident sessions (any state; terminal sessions
	// linger until pruned, so this tracks working-set size, not live
	// demand).
	Sessions int `json:"sessions" xml:"Sessions"`
	// Load is the mean of the shards' guaranteed-partition load factors
	// (0 idle, ≥ 1 when saturated).
	Load float64 `json:"load" xml:"Load"`
	// Recovering is true while a Recover is still in flight; the front
	// tier skips recovering members when placing admissions.
	Recovering bool `json:"recovering,omitempty" xml:"Recovering,omitempty"`
}

// LoadReport snapshots the broker's placement-relevant load. It reads
// only the allocators' published views and per-shard session counts, so
// it is cheap enough for the front tier to call on every admission.
func (b *Broker) LoadReport() LoadReport {
	r := LoadReport{Domain: b.cfg.Domain, Recovering: b.recovering.Load()}
	var sum float64
	for _, sh := range b.shards {
		sum += sh.alloc.LoadFactor()
		sh.mu.Lock()
		r.Sessions += len(sh.sessions)
		sh.mu.Unlock()
	}
	r.Load = sum / float64(len(b.shards))
	return r
}

// Ledger exposes the accounting ledger.
func (b *Broker) Ledger() *pricing.Ledger { return b.ledger }

// Events returns the retained activity log, oldest first. The log is a
// bounded ring (Config.EventLogCap): under sustained load the oldest
// entries are evicted.
// The returned slice is a shared immutable snapshot — callers must not
// modify it. Repeated calls with no intervening events return the same
// snapshot without copying the ring again.
func (b *Broker) Events() []Event {
	b.evMu.Lock()
	defer b.evMu.Unlock()
	if b.evSnap != nil && b.evSnapTotal == b.evTotal {
		return b.evSnap
	}
	out := make([]Event, 0, len(b.evBuf))
	if len(b.evBuf) < cap(b.evBuf) {
		out = append(out, b.evBuf...)
	} else {
		out = append(out, b.evBuf[b.evNext:]...)
		out = append(out, b.evBuf[:b.evNext]...)
	}
	b.evSnap = out
	b.evSnapTotal = b.evTotal
	return out
}

// SetDebugHook installs fn to run after every mutating broker operation
// (nil removes it). It is meant for invariant checking in tests and
// simulations: fn receives the broker with no locks held and any error it
// returns is recorded as an "invariant" event. The cross-component
// invariants fn typically checks (session ↔ allocator consistency) only
// hold when no other operation is in flight, so the hook is reliable only
// under serial use; concurrent harnesses should check at quiesce points
// instead.
func (b *Broker) SetDebugHook(fn func(*Broker) error) {
	b.debugMu.Lock()
	b.debugHook = fn
	b.debugMu.Unlock()
}

// debugCheck runs the debug hook, if any, after operation op.
func (b *Broker) debugCheck(op string) {
	b.debugMu.Lock()
	fn := b.debugHook
	b.debugMu.Unlock()
	if fn == nil {
		return
	}
	if err := fn(b); err != nil {
		b.logf("invariant", "", "after %s: %v", op, err)
	}
}

// DebugViolations returns the "invariant" events recorded by the debug
// hook.
func (b *Broker) DebugViolations() []Event {
	var out []Event
	for _, e := range b.Events() {
		if e.Kind == "invariant" {
			out = append(out, e)
		}
	}
	return out
}

// Session returns a copy of the SLA document for the given session.
func (b *Broker) Session(id sla.ID) (*sla.Document, error) {
	sh := b.shardFor(id)
	if sh == nil {
		return nil, fmt.Errorf("%w: %s", ErrUnknownSession, id)
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	s, ok := sh.sessions[id]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownSession, id)
	}
	return s.doc.Clone(), nil
}

// Sessions returns copies of all session documents matching the filter
// (nil matches all), ordered by ID. Shards are visited in index order,
// one lock at a time.
func (b *Broker) Sessions(filter func(*sla.Document) bool) []*sla.Document {
	var out []*sla.Document
	for _, sh := range b.shards {
		sh.mu.Lock()
		for _, s := range sh.sessions {
			if filter == nil || filter(s.doc) {
				out = append(out, s.doc.Clone())
			}
		}
		sh.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// SessionInfo is a snapshot of broker-internal session state, exposed
// for invariant checking (reservation leaks, missing refunds) and
// reconciliation.
type SessionInfo struct {
	ID         sla.ID
	State      sla.State
	Degraded   bool
	Violations int
	Handle     gara.Handle
	// ProposedAt is when the offer was made (zero for sessions that
	// predate the field's stamping site).
	ProposedAt time.Time
}

// SessionInfos returns a snapshot of every session's internal state,
// ordered by ID. Shards are visited in index order, one lock at a
// time.
func (b *Broker) SessionInfos() []SessionInfo {
	var out []SessionInfo
	for _, sh := range b.shards {
		sh.mu.Lock()
		for id, s := range sh.sessions {
			out = append(out, SessionInfo{
				ID:         id,
				State:      s.doc.State,
				Degraded:   s.degraded,
				Violations: s.violations,
				Handle:     s.handle,
				ProposedAt: s.proposedAt,
			})
		}
		sh.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// PruneTerminal removes terminal sessions — their shard map entries,
// unclaimed promotion offers and routing-table rows — and returns how
// many it removed. Terminal sessions are normally kept so they stay
// queryable; the soak harness calls this at quiesce points so
// multi-million-op runs hold a bounded working set. Reservations
// parked in pendingCancels are keyed independently, so reconciliation is
// unaffected; pruned IDs simply become unknown to Session/SessionInfos.
func (b *Broker) PruneTerminal() int {
	pruned := 0
	for _, sh := range b.shards {
		sh.mu.Lock()
		var ids []sla.ID
		for id, s := range sh.sessions {
			if s.doc.State.Terminal() {
				ids = append(ids, id)
			}
		}
		for _, id := range ids {
			s := sh.sessions[id]
			if s.confirm != nil {
				s.confirm.Stop()
			}
			delete(sh.sessions, id)
			delete(sh.promotions, id)
		}
		sh.mu.Unlock()
		if len(ids) == 0 {
			continue
		}
		b.routeMu.Lock()
		for _, id := range ids {
			delete(b.route, id)
		}
		b.routeMu.Unlock()
		b.journalPrune(ids)
		pruned += len(ids)
	}
	return pruned
}

// logf appends to the activity log ring, evicting the oldest entry when
// full. The log has its own leaf mutex, so this is safe with or without a
// shard lock held.
func (b *Broker) logf(kind string, id sla.ID, format string, args ...any) {
	e := Event{At: b.clock.Now(), Kind: kind, SLA: id, Msg: fmt.Sprintf(format, args...)}
	b.evMu.Lock()
	if len(b.evBuf) < cap(b.evBuf) {
		b.evBuf = append(b.evBuf, e)
	} else {
		b.evBuf[b.evNext] = e
	}
	b.evNext = (b.evNext + 1) % cap(b.evBuf)
	b.evTotal++
	b.evMu.Unlock()
}
