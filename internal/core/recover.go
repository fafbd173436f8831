package core

// Recovery: rebuild a broker from its WAL directory and reconcile the
// result against the resource managers.
//
// Replay determinism contract. Records carry absolute post-state and
// replay is a pure last-write-wins fold over (snapshot, suffix), so
// recovery is deterministic given the directory contents — no clocks
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
	"errors"
	"fmt"
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
	// mid-import sweep (see handoff.go); outbound intents are left for
	// the cluster front's reconcile.
	HandoffsResolved int `json:"handoffs_resolved"`
}

// recoverTestHook, when set, runs after the broker's state is installed
// but before the RM reconciliation sweep — the window the monitor-race
// regression test needs to fire a tick into.
var recoverTestHook func(*Broker)

// Recover rebuilds a broker from cfg.Durability.Dir: loads the latest
// valid snapshot, replays the WAL suffix, rebuilds shard allocators and
// session state, reconciles reservations against the RMs, writes a
// fresh recovery snapshot and resumes journaling. The config must
// describe the same broker shape (plan, shard count, domain) that wrote
// the log.
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
	if err := b.installState(st); err != nil {
		log.Seal()
		return nil, nil, err
	}
	stats.Sessions = st.sessionCount()

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
	aux      map[int]*wal.ShardAux         // shard → latest aux image
	beRoute  map[string]int
	pending  map[string]string
	handoffs map[string]string
	ledger   wal.LedgerState
	nextID   int64
}

func (st *recoveredState) sessionCount() int { return len(st.sessions) }

// foldState folds the load result into one absolute image: snapshot
// fields first, then every suffix record last-write-wins. Ledger
// records are the delta exception — an entry applies only when its
// sequence is past the snapshot's LedgerSeq fence, which is what makes
// replay idempotent for billing (the double-billing bugfix).
func foldState(load *wal.LoadResult) (*recoveredState, error) {
	st := &recoveredState{
		sessions: make(map[string]*wal.SessionRecord),
		aux:      make(map[int]*wal.ShardAux),
		beRoute:  make(map[string]int),
		pending:  make(map[string]string),
		handoffs: make(map[string]string),
		ledger:   wal.LedgerState{Totals: make(map[int]float64)},
	}
	var ledgerFence uint64
	if s := load.Snapshot; s != nil {
		ledgerFence = s.LedgerSeq
		st.nextID = s.NextID
		for i := range s.Shards {
			sh := &s.Shards[i]
			aux := sh.Aux
			st.aux[sh.Index] = &aux
			for j := range sh.Sessions {
				rec := sh.Sessions[j]
				if rec.Doc == nil {
					return nil, fmt.Errorf("%w: snapshot session without document", wal.ErrBadRecord)
				}
				st.sessions[string(rec.Doc.ID)] = &rec
			}
		}
		for u, idx := range s.BERoute {
			st.beRoute[u] = idx
		}
		for id, h := range s.Pending {
			st.pending[id] = h
		}
		for id, it := range s.Handoffs {
			st.handoffs[id] = it
		}
		st.ledger = s.Ledger
		if st.ledger.Totals == nil {
			st.ledger.Totals = make(map[int]float64)
		}
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
			aux := *r.Aux
			st.aux[aux.Shard] = &aux
		}
		if r.HasBERoute {
			st.beRoute = make(map[string]int, len(r.BERoute))
			for u, idx := range r.BERoute {
				st.beRoute[u] = idx
			}
		}
		if r.HasPending {
			st.pending = make(map[string]string, len(r.Pending))
			for id, h := range r.Pending {
				st.pending[id] = h
			}
		}
		if r.HasHandoffs {
			st.handoffs = make(map[string]string, len(r.Handoffs))
			for id, it := range r.Handoffs {
				st.handoffs[id] = it
			}
		}
		for _, id := range r.Prune {
			delete(st.sessions, id)
		}
		if r.Ledger != nil && r.Seq > ledgerFence {
			e := *r.Ledger
			switch pricing.EntryKind(e.Kind) {
			case pricing.EntryCharge, pricing.EntryPromotion:
				st.ledger.Net += e.Amount
			case pricing.EntryPenalty, pricing.EntryRefund:
				st.ledger.Net -= e.Amount
			}
			st.ledger.Totals[e.Kind] += e.Amount
			st.ledger.Entries = append(st.ledger.Entries, e)
		}
		if r.NextID > st.nextID {
			st.nextID = r.NextID
		}
	}
	// Honor the ledger's retention bound exactly as Record would have.
	if st.ledger.Retain > 0 && len(st.ledger.Entries) > st.ledger.Retain {
		drop := len(st.ledger.Entries) - st.ledger.Retain
		st.ledger.Evicted += int64(drop)
		st.ledger.Entries = append([]wal.LedgerEntry(nil), st.ledger.Entries[drop:]...)
	}
	return st, nil
}

// installState loads the folded image into the freshly built broker:
// sessions, routes, repository documents, allocators, auxiliary tables
// and the restored ledger.
func (b *Broker) installState(st *recoveredState) error {
	ids := make([]string, 0, len(st.sessions))
	for id := range st.sessions {
		ids = append(ids, id)
	}
	sort.Strings(ids)

	grants := make([]map[string]resource.Capacity, len(b.shards))
	for i := range grants {
		grants[i] = make(map[string]resource.Capacity)
	}

	for _, idStr := range ids {
		rec := st.sessions[idStr]
		if rec.Shard < 0 || rec.Shard >= len(b.shards) {
			return fmt.Errorf("core: recovered session %s names shard %d, broker has %d — shard count must match the writer",
				idStr, rec.Shard, len(b.shards))
		}
		sh := b.shards[rec.Shard]
		id := sla.ID(idStr)
		s := &session{
			doc:        rec.Doc,
			handle:     gara.Handle(rec.Handle),
			job:        gram.JobID(rec.Job),
			original:   rec.Original,
			degraded:   rec.Degraded,
			violations: rec.Violations,
			proposedAt: rec.ProposedAt,
		}
		sh.mu.Lock()
		sh.sessions[id] = s
		sh.mu.Unlock()
		b.routeMu.Lock()
		b.route[id] = sh
		b.routeMu.Unlock()
		// Non-terminal sessions hold allocator grants; the grant equals
		// the document's allocation (the invariant the oracle enforces
		// live), so the allocator rebuilds from the documents.
		if !rec.Doc.State.Terminal() {
			grants[rec.Shard][idStr] = rec.Doc.Allocated
		}
	}

	for i, sh := range b.shards {
		var aux wal.ShardAux
		if a := st.aux[i]; a != nil {
			aux = *a
		}
		be := make([]BEState, 0, len(aux.BestEffort))
		for _, g := range aux.BestEffort {
			be = append(be, BEState{User: g.User, Granted: g.Granted, Seq: g.Seq})
		}
		sh.alloc.Restore(grants[i], aux.Offline, be, aux.NextSeq)
	}

	b.beMu.Lock()
	for u, idx := range st.beRoute {
		if idx >= 0 && idx < len(b.shards) {
			b.beRoute[u] = b.shards[idx]
		}
	}
	b.beMu.Unlock()

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
	b.ledger = pricing.RestoreLedger(pricingStateIn(st.ledger))
	return nil
}

// pricingStateIn converts a WAL ledger image back to pricing state.
func pricingStateIn(st wal.LedgerState) pricing.State {
	in := pricing.State{
		Entries: make([]pricing.Entry, 0, len(st.Entries)),
		Retain:  st.Retain,
		Evicted: st.Evicted,
		Net:     st.Net,
		Totals:  make(map[pricing.EntryKind]float64, len(st.Totals)),
	}
	for _, e := range st.Entries {
		in.Entries = append(in.Entries, pricing.Entry{
			Kind: pricing.EntryKind(e.Kind), SLA: sla.ID(e.SLA), Amount: e.Amount, At: e.At, Note: e.Note,
		})
	}
	for k, v := range st.Totals {
		in.Totals[pricing.EntryKind(k)] = v
	}
	return in
}

// reconcileAgainstRMs runs the adopt/refund sweep described at the top
// of this file. Deterministic: sessions and reservations are visited in
// sorted order.
func (b *Broker) reconcileAgainstRMs() (adopted, refunded int) {
	// Adopt: live sessions whose recorded handle the GARA does not
	// recognize re-attach by tag.
	type owned struct {
		id sla.ID
		sh *shard
	}
	var live []owned
	liveByID := make(map[sla.ID]gara.Handle)
	for _, sh := range b.shards {
		sh.mu.Lock()
		for id, s := range sh.sessions {
			if !s.doc.State.Terminal() {
				live = append(live, owned{id: id, sh: sh})
				liveByID[id] = s.handle
			}
		}
		sh.mu.Unlock()
	}
	sort.Slice(live, func(i, j int) bool { return live[i].id < live[j].id })
	for _, o := range live {
		h := liveByID[o.id]
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
		if found, ok := b.cfg.GARA.FindByTag(string(o.id)); ok {
			o.sh.mu.Lock()
			if s, exists := o.sh.sessions[o.id]; exists {
				s.handle = found
			}
			o.sh.mu.Unlock()
			liveByID[o.id] = found
			adopted++
			b.logf("recover", o.id, "adopted committed reservation %s by tag", found)
			b.journal("adopt", o.id)
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
		h := r.Handle
		err := b.pol.call("gara.cancel", func() error { return b.cfg.GARA.Cancel(h) })
		switch {
		case err == nil || errors.Is(err, gara.ErrCanceled) || errors.Is(err, gara.ErrUnknownHandle):
			refunded++
			b.logf("recover", id, "refunded orphaned reservation %s", h)
		case errors.Is(err, ErrRMUnavailable):
			b.parkCancel(id, h)
			refunded++
		default:
			b.logf("recover", id, "orphan cancel %s failed: %v", h, err)
		}
	}
	return adopted, refunded
}

// rearmConfirmTimers re-arms the auto-cancel timer of every recovered
// Proposed session with the remainder of its confirm window (an already
// expired window schedules at zero delay and fires on the next clock
// advance — manual-clock semantics).
func (b *Broker) rearmConfirmTimers() {
	for _, sh := range b.shards {
		sh.mu.Lock()
		for id, s := range sh.sessions {
			if s.doc.State != sla.StateProposed || s.confirm != nil {
				continue
			}
			remaining := s.proposedAt.Add(b.cfg.ConfirmWindow).Sub(b.clock.Now())
			if remaining < 0 {
				remaining = 0
			}
			id := id
			s.confirm = b.clock.AfterFunc(remaining, func() { b.expireOffer(id) })
		}
		sh.mu.Unlock()
	}
}
