package core

// This file is the broker's side of the durability layer: what gets
// journaled, when, and under which locks. The wal package owns framing
// and files; this file owns capture.
//
// Journaling model. Every mutating lifecycle operation ends by
// journaling the *absolute post-state* of the session it touched (full
// SLA document plus the broker-internal fields), together with the
// owning shard's auxiliary allocator state. Capture and append happen
// while holding the session's shard lock, so the per-session record
// order in the log is exactly the order the states became current —
// replay is a last-write-wins sweep with no delta arithmetic. Ledger
// entries are the one delta-shaped record: the pricing ledger's
// observer journals each entry at the end of Record, under the ledger
// lock, so the journal order equals the aggregate-update order and the
// snapshot's LedgerSeq fence (captured under the same lock) cleanly
// splits "in the snapshot" from "replay me".
//
// Lock order. The WAL mutex is a leaf below every broker lock:
// sh.mu → sh.alloc.mu → wal.mu, beMu → wal.mu, pcMu → wal.mu and
// l.mu → wal.mu all occur; wal never calls back out. Snapshots need
// those same locks for capture, so an append never snapshots inline —
// Append sets a due flag that maybeSnapshot consumes with no locks
// held.
//
// Failure semantics. Every append is fsynced before it returns; a
// failed append (injected via the "wal.append"/"wal.sync" faultx sites
// or real) rolls the in-flight record back and seals the log — the
// simulated process died at that commit point. The in-memory broker
// may run on, but the durable state ends at the last acknowledged
// record; the crash-point matrix kills the broker there and recovers.
//
// Promotion offers are intentionally not journaled: they are ephemeral
// price quotes that expire within the confirm window, and a recovered
// broker simply re-issues them from the optimizer.

import (
	"sort"

	"gqosm/internal/pricing"
	"gqosm/internal/sla"
	"gqosm/internal/wal"
)

// DurabilityConfig enables the broker's write-ahead lifecycle log.
type DurabilityConfig struct {
	// Dir is the WAL directory; empty disables durability entirely.
	Dir string
	// SnapshotEvery is the snapshot cadence in journaled records
	// (default wal.DefSnapshotEvery).
	SnapshotEvery int
}

// walOptions renders the WAL options for this broker's config.
func (b *Broker) walOptions() wal.Options {
	return wal.Options{
		Dir:           b.cfg.Durability.Dir,
		SnapshotEvery: b.cfg.Durability.SnapshotEvery,
		Faults:        b.cfg.Faults,
	}
}

// attachDurability arms journaling on an open log: every ledger entry
// and lifecycle operation from here on is journaled.
func (b *Broker) attachDurability(log *wal.Log) {
	b.durable = log
	b.ledger.SetObserver(b.journalLedger)
}

// HasWALState reports whether dir already holds journal state from a
// previous broker — the caller should Recover instead of NewBroker.
func HasWALState(dir string) bool { return wal.HasState(dir) }

// WALStats reports journaled records, fsyncs and snapshots (zeros when
// durability is off).
func (b *Broker) WALStats() (appends, syncs, snapshots int64) {
	if b.durable == nil {
		return 0, 0, 0
	}
	return b.durable.Stats()
}

// Crash simulates the broker process dying: no graceful teardown, no
// final journal record. The log is sealed (everything acknowledged is
// already fsynced), confirmation timers are stopped — a dead process
// fires no timers, and on the shared manual clock they would otherwise
// cancel reservations the recovered broker has adopted — and further
// requests are refused. Substrate state (GARA, pools, registry) is
// untouched: it survives the broker, which is exactly what recovery
// reconciles against.
func (b *Broker) Crash() {
	if !b.closed.CompareAndSwap(false, true) {
		return
	}
	if b.intake != nil {
		// A dead process resolves nothing: queued admissions simply never
		// happened (they were not yet journaled), so their tickets fail.
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
	b.ledger.SetObserver(nil)
	if b.durable != nil {
		b.durable.Seal()
	}
}

// walAppend journals one record, counting it and reporting failures to
// the activity log. A failed append means the durable history ended —
// the log is already sealed by the wal layer; the in-memory broker
// carries on (its state past this point is simply not recoverable).
func (b *Broker) walAppend(rec wal.Record) {
	if _, err := b.durable.Append(rec); err != nil {
		b.met.walFailures.Inc()
		b.logf("wal", "", "append failed, durable history sealed: %v", err)
		return
	}
	b.met.walRecords.Inc()
}

// journal captures and appends the absolute post-state of session id —
// a journalBatch of one on the session's shard. It is called with no
// broker locks held. Unknown ids — pruned or never admitted — journal
// nothing.
func (b *Broker) journal(op string, id sla.ID) {
	if b.durable == nil {
		return
	}
	if sh := b.shardFor(id); sh != nil {
		b.journalBatch(op, sh, []sla.ID{id})
	}
}

// journalBatch captures and appends the absolute post-state of the given
// sessions of sh while holding the shard lock, so per-session record
// order equals state order. The records land through one
// wal.AppendBatch — one fsync for the batch, but each record is framed
// and CRC'd on its own, so replay and the crash-point matrix see serial
// journal records (a crash mid-batch recovers the CRC-clean prefix; the
// RM reconciliation sweep refunds the reservations of the unlogged tail,
// the same guarantee an un-journaled proposal has).
func (b *Broker) journalBatch(op string, sh *shard, ids []sla.ID) {
	if b.durable == nil || len(ids) == 0 {
		return
	}
	recs := make([]wal.Record, 0, len(ids))
	sh.mu.Lock()
	for _, id := range ids {
		if s, ok := sh.sessions[id]; ok {
			// AppendBatch marshals synchronously under the shard lock, so
			// handing it the live doc pointers is safe and clone-free.
			recs = append(recs, wal.Record{
				At:      b.clock.Now(),
				Op:      op,
				Session: sessionRecordLocked(sh, id, s),
				Aux:     auxRecord(sh),
				NextID:  b.nextID.Load(),
			})
		}
	}
	if len(recs) > 0 {
		if _, err := b.durable.AppendBatch(recs); err != nil {
			b.met.walFailures.Inc()
			b.logf("wal", "", "append failed, durable history sealed: %v", err)
		} else {
			b.met.walRecords.Add(int64(len(recs)))
		}
	}
	sh.mu.Unlock()
	b.maybeSnapshot()
}

// journalBELocked journals the full best-effort pin table plus the
// touched shard's auxiliary state. The caller holds b.beMu, which is
// what makes the pin-table image and its order authoritative.
func (b *Broker) journalBELocked(op string, sh *shard) {
	if b.durable == nil {
		return
	}
	rec := wal.Record{At: b.clock.Now(), Op: op, BERoute: b.beRouteLocked(), HasBERoute: true}
	if sh != nil {
		rec.Aux = auxRecord(sh)
	}
	b.walAppend(rec)
}

// beRouteLocked renders beRoute as client → shard index (caller holds
// b.beMu).
func (b *Broker) beRouteLocked() map[string]int {
	m := make(map[string]int, len(b.beRoute))
	for u, sh := range b.beRoute {
		m[u] = sh.index
	}
	return m
}

// journalPendingLocked journals the full parked-cancel table (caller
// holds b.pcMu).
func (b *Broker) journalPendingLocked(op string) {
	if b.durable == nil {
		return
	}
	m := make(map[string]string, len(b.pendingCancels))
	for id, h := range b.pendingCancels {
		m[string(id)] = string(h)
	}
	b.walAppend(wal.Record{At: b.clock.Now(), Op: op, Pending: m, HasPending: true})
}

// journalOffline journals every shard's auxiliary state after a
// capacity-failure notification (one record per shard; no session
// changed, only SetOffline results).
func (b *Broker) journalOffline(op string) {
	if b.durable == nil {
		return
	}
	for _, sh := range b.shards {
		b.walAppend(wal.Record{At: b.clock.Now(), Op: op, Aux: auxRecord(sh)})
	}
	b.maybeSnapshot()
}

// journalShardAux journals one shard's auxiliary allocator state on a
// failure-rollback path. A successful AllocateGuaranteed may preempt
// best-effort grants before the enclosing operation fails and walks the
// guaranteed grant back; the preemptions stand (best-effort capacity
// never grows back on its own), so without this record replay would
// resurrect the pre-failure best-effort table.
func (b *Broker) journalShardAux(op string, sh *shard) {
	if b.durable == nil || sh == nil {
		return
	}
	b.walAppend(wal.Record{At: b.clock.Now(), Op: op, Aux: auxRecord(sh)})
	b.maybeSnapshot()
}

// journalPrune journals session removals so replay does not resurrect
// pruned sessions from their earlier records.
func (b *Broker) journalPrune(ids []sla.ID) {
	if b.durable == nil || len(ids) == 0 {
		return
	}
	pruned := make([]string, 0, len(ids))
	for _, id := range ids {
		pruned = append(pruned, string(id))
	}
	sort.Strings(pruned)
	b.walAppend(wal.Record{At: b.clock.Now(), Op: "prune", Prune: pruned})
	b.maybeSnapshot()
}

// journalLedger is the pricing ledger's observer: it runs at the end of
// Ledger.Record while the ledger lock is held, so the journal order is
// exactly the aggregate-update order (see the LedgerSeq fence in
// snapshotNow).
func (b *Broker) journalLedger(e pricing.Entry) {
	if b.durable == nil {
		return
	}
	b.walAppend(wal.Record{
		At: e.At,
		Op: "ledger",
		Ledger: &wal.LedgerEntry{
			Kind:   int(e.Kind),
			SLA:    string(e.SLA),
			Amount: e.Amount,
			At:     e.At,
			Note:   e.Note,
		},
	})
}

// sessionRecordLocked renders a session's absolute state (caller holds
// the owning shard's lock).
func sessionRecordLocked(sh *shard, id sla.ID, s *session) *wal.SessionRecord {
	return &wal.SessionRecord{
		Shard:      sh.index,
		Doc:        s.doc,
		Handle:     string(s.handle),
		Job:        string(s.job),
		Original:   s.original,
		Degraded:   s.degraded,
		Violations: s.violations,
		ProposedAt: s.proposedAt,
	}
}

// auxRecord renders a shard's auxiliary allocator state. ExportAux
// takes the allocator lock itself; callers may hold sh.mu (the
// established sh.mu → alloc.mu order) or no lock at all.
func auxRecord(sh *shard) *wal.ShardAux {
	offline, be, nextSeq := sh.alloc.ExportAux()
	grants := make([]wal.BEGrant, 0, len(be))
	for _, g := range be {
		grants = append(grants, wal.BEGrant{User: g.User, Granted: g.Granted, Seq: g.Seq})
	}
	return &wal.ShardAux{Shard: sh.index, Offline: offline, BestEffort: grants, NextSeq: nextSeq}
}

// maybeSnapshot lands a snapshot when the cadence flag is due. It must
// be called with no broker locks held — capture takes every shard lock,
// the BE and pending leaf locks, and the ledger lock.
func (b *Broker) maybeSnapshot() {
	if b.durable == nil || !b.durable.SnapshotDue() {
		return
	}
	if err := b.snapshotNow(); err != nil {
		b.logf("wal", "", "snapshot failed: %v", err)
	}
}

// snapshotNow captures a consistent broker image and writes it to the
// WAL. BaseSeq is read before capture: any record journaled before the
// read happened under the same lock its state change did, so the
// capture (a later acquisition of that lock) observes it — records
// ≤ BaseSeq are fully contained in the snapshot, records > BaseSeq
// replay over it idempotently. LedgerSeq is read inside the ledger
// export callback, under the ledger lock, making the entry/fence split
// exact (the double-billing guard).
func (b *Broker) snapshotNow() error {
	if b.durable == nil {
		return nil
	}
	snap := &wal.Snapshot{
		BaseSeq: b.durable.LastSeq(),
		At:      b.clock.Now(),
		NextID:  b.nextID.Load(),
	}
	for _, sh := range b.shards {
		sh.mu.Lock()
		ids := make([]sla.ID, 0, len(sh.sessions))
		for id := range sh.sessions {
			ids = append(ids, id)
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		ss := wal.ShardSnap{Index: sh.index}
		for _, id := range ids {
			s := sh.sessions[id]
			rec := sessionRecordLocked(sh, id, s)
			// The snapshot is marshaled after the lock drops; clone the
			// live document so later mutations cannot tear it.
			rec.Doc = s.doc.Clone()
			ss.Sessions = append(ss.Sessions, *rec)
		}
		sh.mu.Unlock()
		// Aux outside sh.mu: ExportAux is internally consistent, and any
		// concurrent change journals its own record past BaseSeq.
		ss.Aux = *auxRecord(sh)
		snap.Shards = append(snap.Shards, ss)
	}
	b.beMu.Lock()
	snap.BERoute = b.beRouteLocked()
	b.beMu.Unlock()
	b.pcMu.Lock()
	snap.Pending = make(map[string]string, len(b.pendingCancels))
	for id, h := range b.pendingCancels {
		snap.Pending[string(id)] = string(h)
	}
	b.pcMu.Unlock()
	b.hoMu.Lock()
	snap.Handoffs = make(map[string]string, len(b.handoffs))
	for id, it := range b.handoffs {
		snap.Handoffs[string(id)] = it.encode()
	}
	b.hoMu.Unlock()
	b.ledger.ExportWith(func(st pricing.State) {
		snap.LedgerSeq = b.durable.LastSeq()
		snap.Ledger = ledgerStateOut(st)
	})
	if err := b.durable.WriteSnapshot(snap); err != nil {
		return err
	}
	b.met.walSnapshots.Inc()
	return nil
}

// ledgerStateOut converts pricing ledger state to its WAL image.
func ledgerStateOut(st pricing.State) wal.LedgerState {
	out := wal.LedgerState{
		Entries: make([]wal.LedgerEntry, 0, len(st.Entries)),
		Retain:  st.Retain,
		Evicted: st.Evicted,
		Net:     st.Net,
		Totals:  make(map[int]float64, len(st.Totals)),
	}
	for _, e := range st.Entries {
		out.Entries = append(out.Entries, wal.LedgerEntry{
			Kind: int(e.Kind), SLA: string(e.SLA), Amount: e.Amount, At: e.At, Note: e.Note,
		})
	}
	for k, v := range st.Totals {
		out.Totals[int(k)] = v
	}
	return out
}
