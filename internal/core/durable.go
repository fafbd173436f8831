package core

// This file is the broker's side of the durability layer: what gets
// journaled, when, and under which locks. The wal package owns framing
// and files; this file owns capture.
//
// Journaling model. Every mutating lifecycle operation ends by
// journaling the *absolute post-state* of the session it touched (full
// SLA document plus the broker-internal fields), together with the
// allocator's auxiliary state. Capture and append happen while holding
// the broker lock, so the per-session record order in the log is exactly
// the order the states became current — replay is a last-write-wins
// sweep with no delta arithmetic. Ledger
// entries are the one delta-shaped record: the pricing ledger's
// observer journals each entry at the end of Record, under the ledger
// lock, so the journal order equals the aggregate-update order and the
// snapshot's LedgerSeq fence (captured under the same lock) cleanly
// splits "in the snapshot" from "replay me".
//
// Lock order. The WAL mutex is a leaf below every broker lock:
// mu → alloc.mu → wal.mu, pcMu → wal.mu and l.mu → wal.mu all occur;
// wal never calls back out. Snapshots need those same locks for capture,
// so an append never snapshots inline — Append sets a due flag that
// maybeSnapshot consumes with no locks held.
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

// walOptions renders the WAL options a broker with this config opens
// its log with: NewBroker's fresh log and Recover's replayed one.
func (c Config) walOptions() wal.Options {
	return wal.Options{
		Dir:           c.Durability.Dir,
		SnapshotEvery: c.Durability.SnapshotEvery,
		Faults:        c.Faults,
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
	// A dead process resolves nothing: queued admissions simply never
	// happened (they were not yet journaled), so their tickets fail.
	b.intake.failQueued(ErrClosed)
	b.stopConfirmTimers()
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
// a journalBatch of one. It is called with no broker locks held. Unknown
// ids — pruned or never admitted — journal nothing.
func (b *Broker) journal(op string, id sla.ID) {
	if b.durable == nil {
		return
	}
	b.journalBatch(op, []sla.ID{id})
}

// journalBatch captures and appends the absolute post-state of the given
// sessions while holding b.mu, so per-session record order equals state
// order. The records land through one wal.AppendBatch — one fsync for
// the batch, but each record is framed and CRC'd on its own, so replay
// and the crash-point matrix see serial journal records (a crash
// mid-batch recovers the CRC-clean prefix; the RM reconciliation sweep
// refunds the reservations of the unlogged tail, the same guarantee an
// un-journaled proposal has).
func (b *Broker) journalBatch(op string, ids []sla.ID) {
	if b.durable == nil || len(ids) == 0 {
		return
	}
	recs := make([]wal.Record, 0, len(ids))
	b.mu.Lock()
	for _, id := range ids {
		if s, ok := b.sessions[id]; ok {
			// AppendBatch marshals synchronously under b.mu, so handing it
			// the live doc pointers is safe and clone-free.
			recs = append(recs, wal.Record{
				At:      b.clock.Now(),
				Op:      op,
				Session: sessionRecord(s),
				Aux:     b.auxRecord(),
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
	b.mu.Unlock()
	b.maybeSnapshot()
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

// journalAux journals the allocator's auxiliary state alone, for changes
// that touch no session: a best-effort grant or release, a
// capacity-failure notification (SetOffline results) and a failure
// rollback. A successful AllocateGuaranteed may preempt best-effort
// grants before the enclosing operation fails and walks the guaranteed
// grant back; the preemptions stand (best-effort capacity never grows
// back on its own), so without this record replay would resurrect the
// pre-failure best-effort table. The image is captured and appended
// under b.mu, as journalBatch's are, so the last aux image in the log is
// the last one taken. It is called with no broker locks held.
func (b *Broker) journalAux(op string) {
	if b.durable == nil {
		return
	}
	b.mu.Lock()
	b.walAppend(wal.Record{At: b.clock.Now(), Op: op, Aux: b.auxRecord()})
	b.mu.Unlock()
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
	b.walAppend(wal.Record{At: e.At, Op: "ledger", Ledger: &e})
}

// sessionRecord renders a session's absolute state (caller holds b.mu).
func sessionRecord(s *session) *wal.SessionRecord {
	return &wal.SessionRecord{
		Doc:        s.doc,
		Handle:     string(s.handle),
		Job:        string(s.job),
		Original:   s.original,
		Degraded:   s.degraded,
		Violations: int(s.violations),
		ProposedAt: s.proposedAt,
	}
}

// auxRecord renders the allocator's auxiliary state. ExportAux takes the
// allocator lock itself; callers may hold b.mu (the established
// mu → alloc.mu order) or no lock at all.
func (b *Broker) auxRecord() *wal.ShardAux {
	offline, be, nextSeq := b.alloc.ExportAux()
	grants := make([]wal.BEGrant, 0, len(be))
	for _, g := range be {
		grants = append(grants, wal.BEGrant{User: g.User, Granted: g.Granted, Seq: g.Seq})
	}
	return &wal.ShardAux{Offline: offline, BestEffort: grants, NextSeq: nextSeq}
}

// maybeSnapshot lands a snapshot when the cadence flag is due. It must
// be called with no broker locks held — capture takes b.mu, the pending
// and hand-off leaf locks, and the ledger lock.
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
	b.mu.Lock()
	ids := make([]sla.ID, 0, len(b.sessions))
	for id := range b.sessions {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	var ss wal.ShardSnap
	for _, id := range ids {
		s := b.sessions[id]
		rec := sessionRecord(s)
		// The snapshot is marshaled after the lock drops; clone the live
		// document so later mutations cannot tear it.
		rec.Doc = s.doc.Clone()
		ss.Sessions = append(ss.Sessions, *rec)
	}
	b.mu.Unlock()
	// Aux outside b.mu: ExportAux is internally consistent, and any
	// concurrent change journals its own record past BaseSeq.
	ss.Aux = *b.auxRecord()
	snap.Shards = []wal.ShardSnap{ss}
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
		snap.Ledger = st
	})
	if err := b.durable.WriteSnapshot(snap); err != nil {
		return err
	}
	b.met.walSnapshots.Inc()
	return nil
}
