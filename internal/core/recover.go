package core

// Recovery: rebuild a broker from its WAL directory and reconcile the
// result against the resource managers.
//
// Replay determinism contract. Records carry absolute post-state and
// replay is a pure last-write-wins fold over (snapshot, suffix); ledger
// entries past the snapshot's fence are re-applied through
// Ledger.Record, so running totals and retention follow the live rule.
// Recovery is deterministic given the directory contents — no clocks
// are read during the fold (timestamps in records are data, not
// inputs), and the single wall-clock-dependent step afterwards
// (re-arming confirm timers) runs on the injected clockx clock, which
// the simulation harnesses drive manually.
//
// Reconcile rules (the RM sweep that makes recovered capacity match
// reality):
//
//   - adopt: a live session whose recorded handle the GARA no longer
//     recognizes (or that never had one journaled) adopts the
//     reservation FindByTag returns for its SLA ID — the reservation
//     committed but the broker died before journaling the handle.
//   - refund: a non-canceled GARA reservation tagged with this domain's
//     SLA prefix that no live (non-terminal) session owns is cancelled —
//     the broker died between committing the reservation and journaling
//     the session, or after terminating the session but before the
//     cancel. Cancels that fail against an unavailable RM are parked,
//     exactly like a live teardown.
//   - parked sweep: the recovered parked-cancel table is swept once,
//     while the public ReconcileReservations is still gated by
//     b.recovering (see retry.go).

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"

	"gqosm/internal/gara"
	"gqosm/internal/gram"
	"gqosm/internal/pricing"
	"gqosm/internal/resource"
	"gqosm/internal/sla"
	"gqosm/internal/wal"
)

// RecoverStats reports what a Recover did.
type RecoverStats struct {
	// SnapshotSeq is the loaded snapshot's BaseSeq (0 = no snapshot).
	SnapshotSeq uint64 `json:"snapshot_seq"`
	// ReplayedRecords is how many WAL records were folded over the
	// snapshot.
	ReplayedRecords int `json:"replayed_records"`
	// CorruptTail is true when replay stopped at a corrupt record (the
	// prefix before it recovered normally).
	CorruptTail bool `json:"corrupt_tail"`
	// Sessions is how many sessions were rebuilt.
	Sessions int `json:"sessions"`
	// Adopted counts committed-but-unlogged reservations re-attached to
	// their sessions by SLA tag.
	Adopted int `json:"adopted"`
	// Refunded counts orphaned reservations cancelled (or parked for
	// cancel) by the reconcile sweep.
	Refunded int `json:"refunded"`
	// ParkedCleared counts parked cancels cleared by the recovery sweep.
	ParkedCleared int `json:"parked_cleared"`
	// HandoffsResolved counts inbound hand-off intents resolved by the
	// mid-import sweep (see handoff.go); outbound intents survive
	// recovery.
	HandoffsResolved int `json:"handoffs_resolved"`
}

// recoverTestHook, when set, runs after the broker's state is installed
// but before the RM reconciliation sweep — the window the monitor-race
// regression test needs to fire a tick into.
var recoverTestHook func(*Broker)

// Recover rebuilds a broker from cfg.Durability.Dir: loads the latest
// valid snapshot, replays the WAL suffix, rebuilds the allocator and
// session state, reconciles reservations against the RMs, writes a
// fresh recovery snapshot and resumes journaling. The config must
// describe the same broker shape (plan, domain) that wrote the log.
func Recover(cfg Config) (*Broker, *RecoverStats, error) {
	if cfg.Durability.Dir == "" {
		return nil, nil, errors.New("core: Recover requires Config.Durability.Dir")
	}
	log, load, err := wal.Open(wal.Options{
		Dir:           cfg.Durability.Dir,
		SnapshotEvery: cfg.Durability.SnapshotEvery,
		Faults:        cfg.Faults,
	})
	if err != nil {
		return nil, nil, err
	}
	b, err := newBroker(cfg)
	if err != nil {
		log.Seal()
		return nil, nil, err
	}
	b.recovering.Store(true)
	stats := &RecoverStats{ReplayedRecords: len(load.Records), CorruptTail: load.Corrupt != nil}
	if load.Snapshot != nil {
		stats.SnapshotSeq = load.Snapshot.BaseSeq
	}

	st, err := foldState(load)
	if err != nil {
		log.Seal()
		return nil, nil, err
	}
	b.installState(st)
	stats.Sessions = len(st.sessions)

	// Journaling resumes before reconciliation so the sweep's own
	// mutations (parked-cancel changes, ledger entries) are durable.
	b.attachDurability(log)
	if load.Corrupt != nil {
		b.logf("wal", "", "replay stopped at corrupt record after seq %d: %v", log.LastSeq(), load.Corrupt)
	}

	if recoverTestHook != nil {
		recoverTestHook(b)
	}

	stats.Adopted, stats.Refunded = b.reconcileAgainstRMs()
	stats.ParkedCleared = b.sweepParked()
	stats.HandoffsResolved = b.resolveInboundHandoffs()
	b.rearmConfirmTimers()

	// Land a fresh snapshot of the reconciled state so the next recovery
	// starts here instead of re-replaying the whole suffix.
	if err := b.snapshotNow(); err != nil {
		b.logf("wal", "", "recovery snapshot failed: %v", err)
	}
	b.recovering.Store(false)
	b.logf("recover", "", "recovered %d session(s) from %s (replayed %d, adopted %d, refunded %d)",
		stats.Sessions, cfg.Durability.Dir, stats.ReplayedRecords, stats.Adopted, stats.Refunded)
	return b, stats, nil
}

// recoveredState is the folded (snapshot ⊕ suffix) image.
type recoveredState struct {
	sessions map[string]*wal.SessionRecord // id → latest absolute state
	aux      wal.ShardAux                  // latest aux image
	pending  map[string]string
	handoffs map[string]string
	ledger   pricing.State   // the snapshot's ledger
	entries  []pricing.Entry // ledger entries past the snapshot's fence
	nextID   int64
}

// foldState folds the load result into one absolute image: snapshot
// fields first, then every suffix record last-write-wins. Ledger
// records are the delta exception — an entry is collected only when its
// sequence is past the snapshot's LedgerSeq fence, which is what makes
// replay idempotent for billing (the double-billing bugfix).
func foldState(load *wal.LoadResult) (*recoveredState, error) {
	st := &recoveredState{sessions: make(map[string]*wal.SessionRecord)}
	var ledgerFence uint64
	if s := load.Snapshot; s != nil {
		ledgerFence = s.LedgerSeq
		st.nextID = s.NextID
		for _, part := range s.Shards {
			st.aux = part.Aux
			for j := range part.Sessions {
				rec := part.Sessions[j]
				if rec.Doc == nil {
					return nil, fmt.Errorf("%w: snapshot session without document", wal.ErrBadRecord)
				}
				st.sessions[string(rec.Doc.ID)] = &rec
			}
		}
		st.pending, st.handoffs, st.ledger = s.Pending, s.Handoffs, s.Ledger
	}
	for i := range load.Records {
		r := &load.Records[i]
		if r.Session != nil {
			if r.Session.Doc == nil {
				return nil, fmt.Errorf("%w: session record %d without document", wal.ErrBadRecord, r.Seq)
			}
			st.sessions[string(r.Session.Doc.ID)] = r.Session
		}
		if r.Aux != nil {
			st.aux = *r.Aux
		}
		if r.HasPending {
			st.pending = r.Pending
		}
		if r.HasHandoffs {
			st.handoffs = r.Handoffs
		}
		for _, id := range r.Prune {
			delete(st.sessions, id)
		}
		if r.Ledger != nil && r.Seq > ledgerFence {
			st.entries = append(st.entries, *r.Ledger)
		}
		if r.NextID > st.nextID {
			st.nextID = r.NextID
		}
	}
	return st, nil
}

// installState loads the folded image into the freshly built broker:
// sessions, the allocator, auxiliary tables and the restored ledger.
func (b *Broker) installState(st *recoveredState) {
	grants := make(map[string]resource.Capacity)
	b.mu.Lock()
	for idStr, rec := range st.sessions {
		s := &session{
			doc:        rec.Doc,
			handle:     gara.Handle(rec.Handle),
			job:        gram.JobID(rec.Job),
			original:   rec.Original,
			degraded:   rec.Degraded,
			violations: rec.Violations,
			proposedAt: rec.ProposedAt,
			// The journal cannot say whether GARA matches the document
			// (a crash may fall between a modify and its record), so a
			// recovered session's first move calls gara.modify.
			stale: true,
		}
		b.sessions[sla.ID(idStr)] = s
		// Non-terminal sessions are live and hold allocator grants; the
		// grant equals the document's allocation (the invariant the oracle
		// enforces live), so the allocator rebuilds from the documents.
		if !rec.Doc.State.Terminal() {
			b.live[sla.ID(idStr)] = s
			grants[idStr] = rec.Doc.Allocated
		}
	}
	b.mu.Unlock()

	be := make([]BEState, 0, len(st.aux.BestEffort))
	for _, g := range st.aux.BestEffort {
		be = append(be, BEState{User: g.User, Granted: g.Granted, Seq: g.Seq})
	}
	b.alloc.Restore(grants, st.aux.Offline, be, st.aux.NextSeq)

	b.pcMu.Lock()
	for id, h := range st.pending {
		b.pendingCancels[sla.ID(id)] = gara.Handle(h)
	}
	b.pcMu.Unlock()

	b.hoMu.Lock()
	for id, it := range st.handoffs {
		b.handoffs[sla.ID(id)] = decodeIntent(it)
	}
	b.hoMu.Unlock()

	b.nextID.Store(st.nextID)
	// The suffix entries go through the live accounting rule, so net
	// revenue, totals and retention are exactly what Record made of them
	// before the crash. No observer is installed yet: nothing re-journals.
	b.ledger = pricing.RestoreLedger(st.ledger)
	for _, e := range st.entries {
		b.ledger.Record(e)
	}
}

// reconcileAgainstRMs runs the adopt/refund sweep described at the top
// of this file. Deterministic: sessions and reservations are visited in
// sorted order.
func (b *Broker) reconcileAgainstRMs() (adopted, refunded int) {
	// Adopt: live sessions whose recorded handle the GARA does not
	// recognize re-attach by tag.
	var live []sla.ID
	liveByID := make(map[sla.ID]gara.Handle)
	b.mu.Lock()
	for id, s := range b.sessions {
		if !s.doc.State.Terminal() {
			live = append(live, id)
			liveByID[id] = s.handle
		}
	}
	b.mu.Unlock()
	sort.Slice(live, func(i, j int) bool { return live[i] < live[j] })
	for _, id := range live {
		h := liveByID[id]
		known := false
		if h != "" {
			// A canceled reservation is as dead as a missing one: the
			// session needs the live replacement FindByTag knows about.
			if r, err := b.cfg.GARA.Get(h); err == nil && r.Status != gara.StatusCanceled {
				known = true
			}
		}
		if known {
			continue
		}
		if found, ok := b.cfg.GARA.FindByTag(string(id)); ok {
			b.mu.Lock()
			if s, exists := b.sessions[id]; exists {
				s.handle = found
			}
			b.mu.Unlock()
			liveByID[id] = found
			adopted++
			b.logf("recover", id, "adopted committed reservation %s by tag", found)
			b.journal("adopt", id)
		}
	}

	// Refund: non-canceled reservations tagged with this domain's SLA
	// prefix that no live session owns.
	prefix := strings.ToLower(nonEmpty(b.cfg.Domain, "aqos")) + "-sla-"
	res := b.cfg.GARA.Reservations()
	sort.Slice(res, func(i, j int) bool { return res[i].Handle < res[j].Handle })
	for _, r := range res {
		if r.Status == gara.StatusCanceled || !strings.HasPrefix(r.Tag, prefix) {
			continue
		}
		id := sla.ID(r.Tag)
		if h, ok := liveByID[id]; ok && h == r.Handle {
			continue // owned by a live session
		}
		switch err := b.giveBack(id, r.Handle); {
		case err == nil:
			refunded++
			b.logf("recover", id, "refunded orphaned reservation %s", r.Handle)
		case errors.Is(err, ErrRMUnavailable):
			refunded++ // parked
		default:
			b.logf("recover", id, "orphan cancel %s failed: %v", r.Handle, err)
		}
	}
	return adopted, refunded
}

// rearmConfirmTimers re-arms the auto-cancel timer of every recovered
// Proposed session with the remainder of its confirm window (an already
// expired window schedules at zero delay and fires on the next clock
// advance — manual-clock semantics). The timers are armed in proposal
// order (proposedAt, then ID): the manual clock fires equal deadlines in
// arming order, and a batch proposes several offers at one instant, so
// arming them in map order would expire them in a different order on
// every run.
func (b *Broker) rearmConfirmTimers() {
	b.mu.Lock()
	defer b.mu.Unlock()
	var proposed []sla.ID
	for id, s := range b.live {
		if s.doc.State == sla.StateProposed && s.confirm == nil {
			proposed = append(proposed, id)
		}
	}
	slices.SortFunc(proposed, func(x, y sla.ID) int {
		if c := b.live[x].proposedAt.Compare(b.live[y].proposedAt); c != 0 {
			return c
		}
		return cmp.Compare(x, y)
	})
	for _, id := range proposed {
		s := b.live[id]
		remaining := max(s.proposedAt.Add(b.cfg.ConfirmWindow).Sub(b.clock.Now()), 0)
		s.confirm = b.clock.AfterFunc(remaining, func() { b.expireOffer(id) })
	}
}
