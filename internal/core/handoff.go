package core

// Session hand-off: migrating a live SLA from one broker to another for
// cluster rebalancing. The SLA ID is globally unique (domain-prefixed),
// so the session keeps its identity; only the hosting broker changes.
//
// Protocol (driven by cluster.Front.Migrate, see internal/cluster):
//
//	source.BeginHandoff(id, target)  journal "out:<target>" intent, export state
//	target.ImportSession(state)      journal "in:<source>" intent, admit under
//	                                 the same ID, install session, clear intent
//	source.CompleteHandoff(id)       tear the source copy down, clear intent
//
// Both sides journal their intent BEFORE the step it describes, so every
// crash point recovers to exactly one owner once the caller that sees
// both sides resolves a surviving out-intent (nothing in the repository
// does so after a crash any more):
//
//	source dies before the import    → out-intent + live source session;
//	                                   target has nothing: AbortHandoff,
//	                                   and the source stays owner.
//	source dies after the import     → out-intent + live source session;
//	(the worst crash point)            target live: CompleteHandoff — the
//	                                   recovered source copy is torn down,
//	                                   one owner remains.
//	target dies mid-import           → in-intent without a session: target
//	                                   recovery cancels the reservation
//	                                   FindByTag knows under the ID and drops
//	                                   the intent; the source aborts and
//	                                   stays owner. The tag sweep alone would
//	                                   miss it — an imported reservation
//	                                   carries the SOURCE domain's SLA prefix.
//	target dies after install        → in-intent + live session: recovery
//	                                   just drops the intent; CompleteHandoff
//	                                   finishes on the source side.
//
// The client is not re-charged: billing stayed on the source until
// teardown, and the imported document keeps its price. Degraded sessions
// are not migrated — restoring them is the source's scenario-2 duty, and
// exporting the degraded/original pair would entangle two brokers'
// adaptation ladders.

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"gqosm/internal/gara"
	"gqosm/internal/resource"
	"gqosm/internal/sla"
	"gqosm/internal/wal"
)

// Hand-off errors.
var (
	// ErrHandoffPending is returned when a session already has an open
	// hand-off intent (or a lifecycle op races an in-flight migration).
	ErrHandoffPending = errors.New("core: session hand-off in progress")
	// ErrNotHandoff is returned by Complete/AbortHandoff for sessions
	// with no outbound hand-off intent.
	ErrNotHandoff = errors.New("core: no hand-off in progress")
)

// handoffIntent is one row of the journaled intent table.
type handoffIntent struct {
	// dir is "out" (this broker is draining the session toward peer) or
	// "in" (this broker is importing it from peer).
	dir  string
	peer string
}

func (h handoffIntent) encode() string { return h.dir + ":" + h.peer }

func decodeIntent(s string) handoffIntent {
	dir, peer, _ := strings.Cut(s, ":")
	return handoffIntent{dir: dir, peer: peer}
}

// HandoffState is the portable image of a live session: everything the
// target broker needs to re-admit it under the same SLA ID. The GRAM job
// does not travel — a migrated Active session is re-invoked (or left
// jobless) on the target; its source job dies with the source
// reservation.
type HandoffState struct {
	// Doc is the full SLA document (cloned; the importer re-stamps
	// Provider).
	Doc *sla.Document
	// Original is the pre-degradation allocation (equals Allocated for
	// the never-degraded sessions hand-off accepts).
	Original resource.Capacity
	// Violations carries the session's violation count across.
	Violations int
	// Source names the exporting broker's domain.
	Source string
}

// BeginHandoff starts draining session id toward the target domain: the
// outbound intent is journaled and the session's portable state
// returned. The session keeps serving on this broker — and Terminate/
// Expire refuse it — until CompleteHandoff or AbortHandoff closes the
// intent.
func (b *Broker) BeginHandoff(id sla.ID, target string) (*HandoffState, error) {
	if b.closed.Load() {
		return nil, ErrClosed
	}
	if target == "" || target == b.cfg.Domain {
		return nil, fmt.Errorf("core: hand-off target must be another domain, got %q", target)
	}
	// An unknown ID is refused before it claims, and journals, an intent.
	b.mu.Lock()
	_, known := b.sessions[id]
	b.mu.Unlock()
	if !known {
		return nil, fmt.Errorf("%w: %s", ErrUnknownSession, id)
	}

	// Claim the intent slot first: two concurrent BeginHandoffs (or a
	// Begin racing an import) must not both export.
	b.hoMu.Lock()
	if it, open := b.handoffs[id]; open {
		b.hoMu.Unlock()
		return nil, fmt.Errorf("%w: %s is %s to %q", ErrHandoffPending, id, it.dir, it.peer)
	}
	b.handoffs[id] = handoffIntent{dir: "out", peer: target}
	b.journalHandoffsLocked("handoff-begin")
	b.hoMu.Unlock()

	b.mu.Lock()
	s, ok := b.sessions[id]
	var st *HandoffState
	var err error
	switch {
	case !ok:
		err = fmt.Errorf("%w: %s", ErrUnknownSession, id)
	case s.doc.State != sla.StateEstablished && s.doc.State != sla.StateActive:
		err = fmt.Errorf("%w: %s is %s, hand-off needs established or active", ErrBadState, id, s.doc.State)
	case s.degraded:
		err = fmt.Errorf("%w: %s is degraded; restore before migrating", ErrBadState, id)
	default:
		st = &HandoffState{
			Doc:        s.doc.Clone(),
			Original:   s.original,
			Violations: int(s.violations),
			Source:     b.cfg.Domain,
		}
	}
	b.mu.Unlock()
	if err != nil {
		b.hoMu.Lock()
		delete(b.handoffs, id)
		b.journalHandoffsLocked("handoff-abort")
		b.hoMu.Unlock()
		return nil, err
	}
	b.met.handoffsOut.Inc()
	b.logf("handoff", id, "draining toward %q (allocation %v)", target, st.Doc.Allocated)
	return st, nil
}

// AbortHandoff closes an outbound intent without touching the session:
// the source broker remains the owner. Idempotent against an intent the
// recovery sweep or a completed hand-off already cleared.
func (b *Broker) AbortHandoff(id sla.ID) error {
	b.hoMu.Lock()
	it, open := b.handoffs[id]
	if open && it.dir == "out" {
		delete(b.handoffs, id)
		b.journalHandoffsLocked("handoff-abort")
	}
	b.hoMu.Unlock()
	if !open {
		return nil
	}
	if it.dir != "out" {
		return fmt.Errorf("%w: %s has an inbound intent from %q", ErrNotHandoff, id, it.peer)
	}
	b.logf("handoff", id, "aborted; this broker remains owner")
	return nil
}

// CompleteHandoff finishes an outbound hand-off after the target broker
// committed the session: the source copy is torn down (reservation
// canceled, capacity released, scenario-2 applied to the freed room) and
// the intent cleared. A source copy that already went terminal (the
// client terminated mid-migration, or a recovery replayed the teardown)
// just clears the intent. The intent is removed only AFTER the teardown
// journals, so a crash inside this call still recovers to one owner: the
// out-intent survives and a repeated call finishes the completion.
func (b *Broker) CompleteHandoff(id sla.ID) error {
	b.hoMu.Lock()
	it, open := b.handoffs[id]
	b.hoMu.Unlock()
	if !open || it.dir != "out" {
		return fmt.Errorf("%w: %s", ErrNotHandoff, id)
	}

	// ErrBadState: the source copy is already terminal.
	if err := b.teardown(id, sla.StateTerminated,
		fmt.Sprintf("migrated to %q", it.peer)); err != nil && !errors.Is(err, ErrBadState) {
		return err
	}

	b.hoMu.Lock()
	delete(b.handoffs, id)
	b.journalHandoffsLocked("handoff-complete")
	b.hoMu.Unlock()
	b.met.handoffsDone.Inc()
	b.logf("handoff", id, "completed; %q is now the owner", it.peer)
	b.afterRelease()
	return nil
}

// importTestHook, when set, runs after the inbound intent is journaled
// but before the target admits the session — the window the
// crash-mid-import regression test kills the broker in.
var importTestHook func(*Broker)

// ImportSession admits a migrated session under its original SLA ID: the
// inbound intent is journaled first, the session's current allocation is
// admitted all-or-nothing, a GARA
// reservation is created idempotently under the ID, and the session is
// installed with this broker as provider. Re-importing an ID this broker
// already hosts live is a no-op (a retried import after a lost reply).
// An ID with an open intent — another import of it in flight, or a
// hand-off out of this broker — is refused with ErrHandoffPending, so one
// import per ID runs at a time. The client is not charged again.
func (b *Broker) ImportSession(st *HandoffState) error {
	if b.closed.Load() {
		return ErrClosed
	}
	if b.recovering.Load() {
		return ErrPeerUnavailable
	}
	if st == nil || st.Doc == nil {
		return errors.New("core: import needs a session document")
	}
	doc := st.Doc
	id := doc.ID
	if doc.State != sla.StateEstablished && doc.State != sla.StateActive {
		return fmt.Errorf("%w: import of %s in state %s", ErrBadState, id, doc.State)
	}
	b.hoMu.Lock()
	if it, open := b.handoffs[id]; open {
		b.hoMu.Unlock()
		return fmt.Errorf("%w: %s is %s to %q", ErrHandoffPending, id, it.dir, it.peer)
	}
	b.handoffs[id] = handoffIntent{dir: "in", peer: st.Source}
	b.journalHandoffsLocked("handoff-import")
	b.hoMu.Unlock()

	abort := func() {
		b.hoMu.Lock()
		delete(b.handoffs, id)
		b.journalHandoffsLocked("handoff-import-abort")
		b.hoMu.Unlock()
	}
	// The table is read after the claim: an import of id that landed
	// cleared its intent only once installed, so it reads as live here.
	b.mu.Lock()
	prev, known := b.sessions[id]
	b.mu.Unlock()
	if known {
		abort()
		if !prev.doc.State.Terminal() {
			return nil // idempotent re-import
		}
		return fmt.Errorf("%w: %s already ended on this broker", ErrBadState, id)
	}

	if importTestHook != nil {
		importTestHook(b)
	}

	// Admission is all-or-nothing at the session's current allocation:
	// migration rebalances load, it never degrades the migrated SLA.
	alloc := doc.Allocated
	if _, err := b.alloc.AllocateGuaranteed(string(id), alloc, alloc); err != nil {
		abort()
		return fmt.Errorf("core: import %s: %w", id, err)
	}

	handle, err := b.reserve(id, reservationRSL(doc.Spec, alloc), doc.Start, doc.End)
	if err != nil {
		abort()
		return fmt.Errorf("core: import reservation %s: %w", id, err)
	}

	imported := doc.Clone()
	imported.Provider = b.cfg.Domain
	sess := &session{
		doc:        imported,
		handle:     handle,
		original:   st.Original,
		violations: int32(st.Violations),
	}
	if sess.original.IsZero() {
		sess.original = alloc
	}
	err = b.install([]sla.ID{id}, func(int) gara.Handle { return handle }, func() {
		b.putLive(id, sess)
		b.logf("handoff", id, "imported from %q at %v (no re-charge)", st.Source, alloc)
	})
	if err != nil {
		abort()
		return err
	}
	b.met.handoffsIn.Inc()
	b.journal("persist", id)

	b.hoMu.Lock()
	delete(b.handoffs, id)
	b.journalHandoffsLocked("handoff-import-done")
	b.hoMu.Unlock()
	b.debugCheck("import")
	return nil
}

// handoffBlocked reports whether id has an open outbound intent;
// Terminate and Expire refuse such sessions so a teardown cannot race
// the migration window (CompleteHandoff performs the teardown itself).
func (b *Broker) handoffBlocked(id sla.ID) bool {
	b.hoMu.Lock()
	it, open := b.handoffs[id]
	b.hoMu.Unlock()
	return open && it.dir == "out"
}

// journalHandoffsLocked journals the full intent table (caller holds
// b.hoMu) — the same full-image pattern as the parked-cancel table.
func (b *Broker) journalHandoffsLocked(op string) {
	if b.durable == nil {
		return
	}
	m := make(map[string]string, len(b.handoffs))
	for id, it := range b.handoffs {
		m[string(id)] = it.encode()
	}
	b.walAppend(wal.Record{At: b.clock.Now(), Op: op, Handoffs: m, HasHandoffs: true})
}

// resolveInboundHandoffs is the recovery half of the import protocol: an
// in-intent whose session never landed means the broker died mid-import
// — any reservation already committed under the ID is canceled (it
// carries the SOURCE domain's tag prefix, so the regular orphan sweep
// would never claim it) and the intent dropped. An in-intent with a live
// session means the import committed; the intent is simply cleared.
// Outbound intents are left to a caller that can see whether the
// target committed (CompleteHandoff or AbortHandoff). Returns how many inbound
// intents were resolved.
func (b *Broker) resolveInboundHandoffs() int {
	b.hoMu.Lock()
	var inbound []sla.ID
	for id, it := range b.handoffs {
		if it.dir == "in" {
			inbound = append(inbound, id)
		}
	}
	b.hoMu.Unlock()
	sort.Slice(inbound, func(i, j int) bool { return inbound[i] < inbound[j] })

	resolved := 0
	for _, id := range inbound {
		b.mu.Lock()
		s, ok := b.sessions[id]
		live := ok && !s.doc.State.Terminal()
		b.mu.Unlock()
		if !live {
			if h, ok := b.cfg.GARA.FindByTag(string(id)); ok {
				switch err := b.giveBack(id, h); {
				case err == nil:
					b.logf("recover", id, "reclaimed half-imported reservation %s", h)
				case !errors.Is(err, ErrRMUnavailable):
					b.logf("recover", id, "half-imported reservation %s cancel failed: %v", h, err)
				}
			}
		}
		b.hoMu.Lock()
		delete(b.handoffs, id)
		b.journalHandoffsLocked("handoff-recover")
		b.hoMu.Unlock()
		resolved++
	}
	return resolved
}
