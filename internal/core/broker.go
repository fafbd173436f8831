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
	// ErrInvalidRequest is returned for client input no broker could
	// serve: a request that fails Request.Validate, or a message a
	// binding cannot decode.
	ErrInvalidRequest = errors.New("core: invalid request")
)

// Finder is the discovery dependency (satisfied by *registry.Registry):
// the first live service matching a name pattern and a QoS floor.
type Finder interface {
	First(pattern string, floor resource.Capacity) (registry.Key, bool)
}

// DefEventLogCap bounds the broker activity log when Config.EventLogCap
// is unset: enough for the recent history of a busy domain in a bounded
// footprint, the ring plus the text blocks its retained lines point into.
const DefEventLogCap = 8192

// evTextBlock sizes the shared text blocks logLine copies line bytes into.
const evTextBlock = 16 << 10

// Config assembles a Broker.
type Config struct {
	// Domain names the administrative domain the broker serves.
	Domain string
	// Clock drives timeouts and timestamps; defaults to the real clock.
	Clock clockx.Clock
	// Plan is the Algorithm-1 capacity partition (required).
	Plan CapacityPlan
	// Registry performs service discovery; nil skips discovery (the
	// request's Service name is taken at face value).
	Registry Finder
	// GARA performs resource reservations (required).
	GARA *gara.System
	// GRAM runs services; nil disables Invoke.
	GRAM *gram.Manager
	// NRM provides network measurements and degradation notifications;
	// optional.
	NRM *nrm.Manager
	// MDS is read by nothing: Verify measures compute conformance from
	// the allocator's coverage. bench/ still writes it (ROADMAP item 28
	// drops the literal, then the field and package mds).
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
	// Obs receives the broker's metrics. Nil creates a private registry,
	// so instrumentation is always live and reachable through Broker.Obs().
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
	// Intake sizes the group-commit queue (see intake.go) in front of the
	// admission pipeline; the zero value takes its defaults.
	Intake IntakeConfig
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
	// commit, where the broker lock is dropped; a second move is refused.
	moving bool
	// stale marks a reservation that may not match the document: a
	// failed gara.modify, or rollback moving the document to what the
	// allocator kept. The next move calls gara.modify even for the same
	// grant; a successful modify clears it.
	stale bool
	// top caches holdsTop(doc.Spec, doc.Allocated), the §5.3 pass's
	// early-exit test: putLive sets it and book, the one writer of a
	// live document's allocation and spec, keeps it.
	top bool
	// livePos is the session's slot in Broker.live while it is not
	// terminal. An int32 beside the bools keeps session at 128 bytes.
	livePos int32
	// violations counts detected SLA violations; refusedAt is the
	// allocator's frees count (low 32 bits) when scenario 2a last tried
	// and failed to restore the session, 0 if it never did. Two 32-bit
	// fields keep session at 128 bytes.
	violations int32
	refusedAt  uint32
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
// A broker holds one Algorithm-1 partition: one allocator and one session
// table under one mutex (mu → alloc.mu → leaf locks). Scaling out means
// more brokers federated with their neighbors (federation.go). The SLA counter (nextID) is atomic;
// the activity log ring (evMu) and the debug hook (debugMu) are leaf
// locks. Components the broker calls while holding mu (allocator, clock
// timer scheduling) never call back into the broker; components that do
// call back (NRM degradation callbacks, clock timer callbacks) always
// fire with no broker lock held.
type Broker struct {
	cfg    Config
	clock  clockx.Clock
	prices *pricing.Model
	ledger *pricing.Ledger
	obs    *obs.Registry
	met    brokerMetrics
	nextID atomic.Int64
	closed atomic.Bool

	// alloc is the domain's Algorithm-1 engine.
	alloc *Allocator

	// mu guards the session table: every SLA the broker admitted (terminal
	// ones stay queryable until pruned), the live set and the open
	// scenario-2(c) promotion offers. live holds the same pointers as
	// sessions for the sessions that are not terminal, densely and in no
	// order, so the per-event walks (clearing, the tick, compensation)
	// cost O(live), not O(history), and each sorts what it collects. A
	// session enters it where it enters the table (putLive) and leaves it
	// only in teardownIf (dropLive).
	mu         sync.Mutex
	sessions   map[sla.ID]*session
	live       []*session
	promotions map[sla.ID]pricing.PromotionOffer

	// evMu guards the activity log ring. It is a leaf lock: safe to take
	// with or without mu held, never held while acquiring another lock.
	evMu    sync.Mutex
	evBuf   []Event
	evNext  int   // index the next event is written to
	evTotal int64 // events ever logged, including evicted ones
	// evText holds the newest lines' bytes; each Msg is a substring of a
	// block that is written only within its capacity, never regrown.
	evText strings.Builder
	// evSnap caches the flattened, oldest-first snapshot Events() built
	// last time, valid while evTotal == evSnapTotal. It is immutable once
	// built — logLine never writes into it, only into evBuf — so Events()
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
	// (see handoff.go). A leaf lock, safe under mu.
	hoMu     sync.Mutex
	handoffs map[sla.ID]handoffIntent

	// durable is the write-ahead lifecycle log; nil keeps every journal
	// site a no-op (the historical in-memory broker). See durable.go.
	durable *wal.Log

	// intake is the group-commit queue in front of admit. See intake.go.
	intake *intake

	// recovering is true from the start of Recover until its RM
	// reconciliation sweep has finished. It gates the public
	// ReconcileReservations so a monitor that re-arms early cannot race
	// the recovery sweep (see recover.go).
	recovering atomic.Bool
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
		log, _, err := wal.Open(cfg.walOptions())
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
	alloc, err := NewAllocator(cfg.Plan)
	if err != nil {
		return nil, err
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
	b := &Broker{
		cfg:            cfg,
		clock:          cfg.Clock,
		prices:         pricing.NewModel(pricing.DefaultRates),
		ledger:         pricing.NewLedger(),
		alloc:          alloc,
		sessions:       make(map[sla.ID]*session),
		promotions:     make(map[sla.ID]pricing.PromotionOffer),
		evBuf:          make([]Event, 0, cfg.EventLogCap),
		obs:            cfg.Obs,
		pendingCancels: make(map[sla.ID]gara.Handle),
		handoffs:       make(map[sla.ID]handoffIntent),
	}
	b.pol = newPolicyRunner(b, cfg.RMPolicy)
	b.met = newBrokerMetrics(b.obs)
	b.registerGauges(b.obs)
	b.obs.GaugeFunc("gqosm_broker_pending_cancels",
		"Reservations awaiting a cancel retry after budget exhaustion",
		func() float64 { return float64(b.PendingCancels()) })
	if cfg.NRM != nil {
		cfg.NRM.Subscribe(b.onNetworkDegradation)
	}
	b.intake = newIntake(b, cfg.Intake, b.obs)
	return b, nil
}

// Close cancels every pending confirmation timer and refuses further
// requests. Established sessions and their reservations are left intact
// (the broker does not own the resource managers' lifecycles).
func (b *Broker) Close() {
	if !b.closed.CompareAndSwap(false, true) {
		return
	}
	b.intake.failQueued(ErrClosed)
	b.stopConfirmTimers()
	if b.durable != nil {
		// Every acknowledged append was already fsynced; sealing just
		// closes the segment. Recovery replays it like any other.
		b.durable.Seal()
	}
}

// stopConfirmTimers stops every pending offer's auto-cancel timer.
func (b *Broker) stopConfirmTimers() {
	b.mu.Lock()
	defer b.mu.Unlock()
	for _, s := range b.sessions {
		if s.confirm != nil {
			s.confirm.Stop()
			s.confirm = nil
		}
	}
}

// Allocator exposes the broker's Algorithm-1 engine (read-mostly:
// experiments snapshot pool usage through it).
func (b *Broker) Allocator() *Allocator { return b.alloc }

// Allocators returns the broker's one allocator as a list, the shape the
// benchmark module reads.
func (b *Broker) Allocators() []*Allocator { return []*Allocator{b.alloc} }

// Domain returns the administrative domain the broker serves.
func (b *Broker) Domain() string { return b.cfg.Domain }

// Recovering reports whether a Recover is still installing state and
// reconciling against the RMs; admissions are refused with
// ErrPeerUnavailable while it is true.
func (b *Broker) Recovering() bool { return b.recovering.Load() }

// LoadReport is a broker's self-report: how loaded its guaranteed
// partition is, how many sessions it hosts and whether it is still
// recovering. `qosctl load` prints it for operators watching a federation,
// the federation report lists one per member (per_broker), and the
// benchmark's migration picks its target from them (cluster.Front.Loads).
// It is its own wire document on both transports.
type LoadReport struct {
	// Domain names the reporting broker.
	Domain string `json:"domain" xml:"Domain"`
	// Sessions counts resident sessions (any state; terminal sessions
	// linger until pruned, so this tracks working-set size, not live
	// demand).
	Sessions int `json:"sessions" xml:"Sessions"`
	// Load is the guaranteed partition's load factor (0 idle, ≥ 1 when
	// saturated).
	Load float64 `json:"load" xml:"Load"`
	// Recovering is true while a Recover is still in flight; the broker
	// refuses admissions meanwhile.
	Recovering bool `json:"recovering,omitempty" xml:"Recovering,omitempty"`
}

// LoadReport snapshots the broker's load: the session count under b.mu,
// then the allocator's load factor under its own lock, one lock at a time.
func (b *Broker) LoadReport() LoadReport {
	b.mu.Lock()
	n := len(b.sessions)
	b.mu.Unlock()
	return LoadReport{Domain: b.cfg.Domain, Sessions: n, Load: b.alloc.LoadFactor(), Recovering: b.recovering.Load()}
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
	b.mu.Lock()
	defer b.mu.Unlock()
	s, ok := b.sessions[id]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownSession, id)
	}
	return s.doc.Clone(), nil
}

// Sessions returns copies of all session documents matching the filter
// (nil matches all), ordered by ID.
func (b *Broker) Sessions(filter func(*sla.Document) bool) []*sla.Document {
	var out []*sla.Document
	b.mu.Lock()
	for _, s := range b.sessions {
		if filter == nil || filter(s.doc) {
			out = append(out, s.doc.Clone())
		}
	}
	b.mu.Unlock()
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
// ordered by ID.
func (b *Broker) SessionInfos() []SessionInfo {
	var out []SessionInfo
	b.mu.Lock()
	for id, s := range b.sessions {
		out = append(out, SessionInfo{
			ID:         id,
			State:      s.doc.State,
			Degraded:   s.degraded,
			Violations: int(s.violations),
			Handle:     s.handle,
			ProposedAt: s.proposedAt,
		})
	}
	b.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// putLive enters a non-terminal session into the table and the live set
// under id, which no live session holds: a proposal's ID is new, recovery
// installs each ID once, and ImportSession runs one import per ID. The
// caller holds b.mu.
func (b *Broker) putLive(id sla.ID, s *session) {
	s.top = holdsTop(s.doc.Spec, s.doc.Allocated)
	s.livePos = int32(len(b.live))
	b.live = append(b.live, s)
	b.sessions[id] = s
}

// dropLive removes s from the live set by moving the last slot into its
// own. The caller holds b.mu.
func (b *Broker) dropLive(s *session) {
	last := len(b.live) - 1
	moved := b.live[last]
	b.live[s.livePos], moved.livePos = moved, s.livePos
	b.live[last] = nil
	b.live = b.live[:last]
}

// PruneTerminal removes terminal sessions — their session-table entries
// and unclaimed promotion offers — and returns how many it removed.
// Terminal sessions are normally kept so they stay queryable; the soak
// harness calls this at quiesce points so multi-million-op runs hold a
// bounded working set. Reservations parked in pendingCancels are keyed
// independently, so reconciliation is unaffected; pruned IDs simply
// become unknown to Session/SessionInfos.
func (b *Broker) PruneTerminal() int {
	b.mu.Lock()
	var ids []sla.ID
	for id, s := range b.sessions {
		if s.doc.State.Terminal() {
			ids = append(ids, id)
		}
	}
	for _, id := range ids {
		delete(b.sessions, id)
		delete(b.promotions, id)
	}
	b.mu.Unlock()
	b.journalPrune(ids)
	return len(ids)
}

// logf prints a line through fmt into a stack buffer and hands it to
// logLine. The lines written on every session are appended without fmt
// (activity.go) and go to logLine directly.
func (b *Broker) logf(kind string, id sla.ID, format string, args ...any) {
	var arr [128]byte
	b.logLine(kind, id, fmt.Appendf(arr[:0], format, args...))
}

// logLine copies line into the current text block, or a fresh one when
// it has no room, and appends it to the ring, evicting the oldest entry
// when full. Its own leaf mutex makes it safe with or without mu held.
func (b *Broker) logLine(kind string, id sla.ID, line []byte) {
	at := b.clock.Now()
	b.evMu.Lock()
	if b.evText.Cap()-b.evText.Len() < len(line) {
		b.evText.Reset()
		b.evText.Grow(max(evTextBlock, len(line)))
	}
	start := b.evText.Len()
	b.evText.Write(line)
	e := Event{At: at, Kind: kind, SLA: id, Msg: b.evText.String()[start:]}
	if len(b.evBuf) < cap(b.evBuf) {
		b.evBuf = append(b.evBuf, e)
	} else {
		b.evBuf[b.evNext] = e
	}
	b.evNext = (b.evNext + 1) % cap(b.evBuf)
	b.evTotal++
	b.evMu.Unlock()
}
