// Package wal is the broker's durability layer: an append-only lifecycle
// log with length+CRC framed JSON records, periodic snapshots, and log
// truncation once a snapshot lands. The broker journals the absolute
// post-operation state of each touched session (plus the allocator's
// auxiliary state), so replay is last-write-wins idempotent;
// ledger entries are the one delta-shaped record and carry their own
// sequence fencing (Snapshot.LedgerSeq) so replay never double-bills.
//
// File layout inside a WAL directory:
//
//	wal-<startseq>.wlog   log segments; <startseq> is the first sequence
//	                      number the segment may contain
//	snap-<baseseq>.wsnap  snapshots; replay applies records with
//	                      Seq > <baseseq>
//
// Every append is fsynced before it is acknowledged (the commit sites in
// the broker are exactly the Append calls). Snapshots are written to a
// temp file, fsynced, renamed into place and the directory fsynced, so a
// crash never leaves a half-written snapshot under a valid name. After a
// snapshot lands the log rotates to a fresh segment and every fully
// superseded segment (max sequence ≤ BaseSeq) is deleted.
//
// Decoding never panics: torn tails, bit flips and oversized frames
// surface as the typed errors below, and recovery stops cleanly at the
// first corrupt record, keeping everything before it.
package wal

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"gqosm/internal/faultx"
	"gqosm/internal/pricing"
	"gqosm/internal/resource"
	"gqosm/internal/sla"
)

// Typed decode errors. Recovery treats any of them on the log tail as
// "the process died mid-write here" and replays everything before it.
var (
	// ErrTruncated marks a frame cut short (torn tail).
	ErrTruncated = errors.New("wal: truncated record")
	// ErrChecksum marks a frame whose payload fails its CRC.
	ErrChecksum = errors.New("wal: record checksum mismatch")
	// ErrTooLarge marks a frame whose declared length exceeds the cap —
	// almost always a corrupted length word.
	ErrTooLarge = errors.New("wal: record exceeds size cap")
	// ErrBadRecord marks a frame whose payload is not a valid record.
	ErrBadRecord = errors.New("wal: malformed record payload")
	// ErrBadMagic marks a file that does not start with the expected
	// format header.
	ErrBadMagic = errors.New("wal: bad file magic")
	// ErrSealed is returned by Append after the log has been sealed
	// (crash simulation or Close).
	ErrSealed = errors.New("wal: log sealed")
)

const (
	logMagic  = "GQWL1\n"
	snapMagic = "GQWS1\n"
	// maxRecord bounds one frame's payload; real records are a few KB.
	maxRecord = 4 << 20

	logSuffix  = ".wlog"
	snapSuffix = ".wsnap"

	// DefSnapshotEvery is the default snapshot cadence in records.
	DefSnapshotEvery = 256

	// Fault-injection site names for the two commit points.
	SiteAppend = "wal.append"
	SiteSync   = "wal.sync"
)

// BEGrant is one best-effort allocation row of the allocator.
type BEGrant struct {
	User    string
	Granted resource.Capacity
	Seq     int
}

// ShardAux is the auxiliary allocator state that cannot be rebuilt from
// session documents alone: failed capacity, the best-effort table, and
// the preemption-order counter.
type ShardAux struct {
	Offline    resource.Capacity
	BestEffort []BEGrant `json:",omitempty"`
	NextSeq    int
}

// SessionRecord is the absolute post-operation state of one session:
// the full SLA document plus the broker-internal fields replay needs.
type SessionRecord struct {
	Doc        *sla.Document
	Handle     string
	Job        string `json:",omitempty"`
	Original   resource.Capacity
	Degraded   bool      `json:",omitempty"`
	Violations int       `json:",omitempty"`
	ProposedAt time.Time `json:",omitempty"`
}

// Record is one framed log entry. Exactly the fields relevant to the
// journaled operation are set; replay applies whichever are present.
type Record struct {
	Seq uint64
	At  time.Time
	Op  string

	// Session carries the touched session's full post-op state.
	Session *SessionRecord `json:",omitempty"`
	// Aux carries the allocator's auxiliary state.
	Aux *ShardAux `json:",omitempty"`
	// Pending is the full parked-cancel table (SLA ID → GARA handle).
	Pending    map[string]string `json:",omitempty"`
	HasPending bool              `json:",omitempty"`
	// Handoffs is the full session hand-off intent table (SLA ID →
	// "out:<peer>" / "in:<peer>"); HasHandoffs distinguishes "now empty"
	// from "not recorded". Intents journal before the cross-broker step
	// they describe, so a crash mid-migration recovers to exactly one
	// owner (see core/handoff.go).
	Handoffs    map[string]string `json:",omitempty"`
	HasHandoffs bool              `json:",omitempty"`
	// Ledger is one accounting delta. Unlike session records it is not
	// absolute state: replay applies it only when its record sequence is
	// past the snapshot's LedgerSeq fence.
	Ledger *pricing.Entry `json:",omitempty"`
	// Prune lists session IDs removed by terminal-state pruning; replay
	// must forget them rather than resurrect them from older records.
	Prune []string `json:",omitempty"`
	// NextID is the SLA counter high-water mark (0 = not recorded).
	NextID int64 `json:",omitempty"`
}

// ShardSnap is the broker's session table and allocator aux state in a
// snapshot.
type ShardSnap struct {
	Sessions []SessionRecord `json:",omitempty"`
	Aux      ShardAux
}

// Snapshot is a consistent image of the whole broker: replay applies log
// records with Seq > BaseSeq on top of it (ledger records with
// Seq > LedgerSeq — the ledger fence is captured under the ledger lock,
// so an entry is either in Ledger or past the fence, never both).
type Snapshot struct {
	BaseSeq   uint64
	LedgerSeq uint64
	At        time.Time
	NextID    int64
	// Shards holds one element: the broker has one partition.
	Shards   []ShardSnap
	Pending  map[string]string `json:",omitempty"`
	Handoffs map[string]string `json:",omitempty"`
	Ledger   pricing.State
}

// Options configures Open.
type Options struct {
	// Dir is the WAL directory (required; created if missing).
	Dir string
	// SnapshotEvery is the snapshot cadence in appended records
	// (default DefSnapshotEvery).
	SnapshotEvery int
	// Faults optionally injects failures at SiteAppend / SiteSync. Any
	// injected failure seals the log — the simulated process died at
	// that commit point — and the in-flight record is rolled back, as a
	// real crash before the fsync would lose it.
	Faults *faultx.Injector
}

// LoadResult reports what Open recovered from the directory.
type LoadResult struct {
	// Snapshot is the latest valid snapshot, nil when none exists.
	Snapshot *Snapshot
	// Records are the replayable log records (Seq > Snapshot.BaseSeq),
	// in sequence order.
	Records []Record
	// Corrupt is the typed error that ended log reading early (nil for
	// a clean tail). Everything before the corruption is in Records.
	Corrupt error
}

// Log is an open WAL: Append journals framed records with an fsync per
// record; WriteSnapshot lands a snapshot, rotates the live segment and
// truncates superseded ones.
type Log struct {
	dir    string
	every  int
	faults *faultx.Injector

	mu        sync.Mutex
	f         *os.File
	size      int64
	seq       uint64 // last assigned sequence number
	sinceSnap int
	sealed    bool
	due       bool

	appends   int64
	syncs     int64
	snapshots int64
}

// HasState reports whether dir holds any WAL state (segments or
// snapshots) — i.e. whether Recover, not a fresh NewBroker, should own
// it.
func HasState(dir string) bool {
	names, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range names {
		if strings.HasSuffix(e.Name(), logSuffix) || strings.HasSuffix(e.Name(), snapSuffix) {
			return true
		}
	}
	return false
}

// Open loads the directory's durable state (latest valid snapshot plus
// the replayable log suffix) and opens a fresh segment for appending,
// continuing the sequence numbering. One call serves both the cold-start
// and the recovery path; the caller decides what to do with the load.
func Open(opts Options) (*Log, *LoadResult, error) {
	if opts.Dir == "" {
		return nil, nil, errors.New("wal: Options.Dir is required")
	}
	if opts.SnapshotEvery <= 0 {
		opts.SnapshotEvery = DefSnapshotEvery
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("wal: %w", err)
	}
	load, lastSeq, err := loadDir(opts.Dir)
	if err != nil {
		return nil, nil, err
	}
	l := &Log{dir: opts.Dir, every: opts.SnapshotEvery, faults: opts.Faults, seq: lastSeq}
	if err := l.rotateLocked(); err != nil {
		return nil, nil, err
	}
	return l, load, nil
}

// loadDir reads the latest valid snapshot and every log record past its
// BaseSeq. It returns the highest sequence number seen anywhere so the
// log can continue numbering past crashes and corrupt tails.
func loadDir(dir string) (*LoadResult, uint64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, 0, fmt.Errorf("wal: %w", err)
	}
	var snaps, segs []string
	for _, e := range entries {
		switch {
		case strings.HasSuffix(e.Name(), snapSuffix):
			snaps = append(snaps, e.Name())
		case strings.HasSuffix(e.Name(), logSuffix):
			segs = append(segs, e.Name())
		}
	}
	sort.Strings(snaps)
	sort.Strings(segs)

	res := &LoadResult{}
	// Newest snapshot that decodes cleanly wins; earlier ones are kept
	// on disk only until the next truncation.
	for i := len(snaps) - 1; i >= 0; i-- {
		data, err := os.ReadFile(filepath.Join(dir, snaps[i]))
		if err != nil {
			continue
		}
		if s, err := DecodeSnapshot(data); err == nil {
			res.Snapshot = s
			break
		}
	}
	base := uint64(0)
	if res.Snapshot != nil {
		base = res.Snapshot.BaseSeq
	}
	lastSeq := base
	if res.Snapshot != nil && res.Snapshot.LedgerSeq > lastSeq {
		lastSeq = res.Snapshot.LedgerSeq
	}
	for _, name := range segs {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			return nil, 0, fmt.Errorf("wal: %s: %w", name, err)
		}
		recs, derr := DecodeLog(data)
		for _, r := range recs {
			if r.Seq > lastSeq {
				lastSeq = r.Seq
			}
			if r.Seq > base {
				res.Records = append(res.Records, r)
			}
		}
		if derr != nil {
			// The first corrupt record ends recovery for this segment —
			// and, because later segments can only hold later writes
			// from a process that died here, for the log as a whole.
			res.Corrupt = derr
			break
		}
	}
	sort.SliceStable(res.Records, func(i, j int) bool { return res.Records[i].Seq < res.Records[j].Seq })
	return res, lastSeq, nil
}

// segmentName renders the segment file for a starting sequence.
func segmentName(startSeq uint64) string {
	return fmt.Sprintf("wal-%016x%s", startSeq, logSuffix)
}

// snapName renders the snapshot file for a base sequence.
func snapName(baseSeq uint64) string {
	return fmt.Sprintf("snap-%016x%s", baseSeq, snapSuffix)
}

// segStart parses the starting sequence out of a segment file name.
func segStart(name string) (uint64, bool) {
	if !strings.HasPrefix(name, "wal-") || !strings.HasSuffix(name, logSuffix) {
		return 0, false
	}
	v, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, "wal-"), logSuffix), 16, 64)
	if err != nil {
		return 0, false
	}
	return v, true
}

// rotateLocked opens a fresh segment starting after the current
// sequence. Callers hold l.mu (or own the log exclusively, in Open).
func (l *Log) rotateLocked() error {
	if l.f != nil {
		_ = l.f.Close()
		l.f = nil
	}
	path := filepath.Join(l.dir, segmentName(l.seq+1))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	if _, err := f.WriteString(logMagic); err != nil {
		_ = f.Close()
		return fmt.Errorf("wal: %w", err)
	}
	if err := f.Sync(); err != nil {
		_ = f.Close()
		return fmt.Errorf("wal: %w", err)
	}
	l.f = f
	l.size = int64(len(logMagic))
	return nil
}

// Append assigns the next sequence number to r and lands it: an
// AppendBatch of one.
func (l *Log) Append(r Record) (uint64, error) {
	return l.AppendBatch([]Record{r})
}

// AppendBatch assigns consecutive sequence numbers to recs, frames them
// all and lands them with a single write + fsync pair — the group-commit
// point: a batch of admissions pays one disk round-trip instead of
// len(recs). Any failure — injected or real — rolls the whole batch's
// partial write back and seals the log: the simulated process died at
// this commit point, and nothing written after a death can exist.
// A real crash between the write and the fsync may still leave a prefix
// of the batch's frames on disk; each frame carries its own CRC, so
// recovery replays exactly that prefix — per-record atomicity is
// unchanged, only the fsync is amortized. It returns the last assigned
// sequence number.
func (l *Log) AppendBatch(recs []Record) (uint64, error) {
	if len(recs) == 0 {
		return l.LastSeq(), nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.sealed {
		return 0, ErrSealed
	}
	// Encode first and size the frame once; a batch of one keeps its
	// payload list on the stack.
	var one [1][]byte
	payloads := one[:]
	if len(recs) > 1 {
		payloads = make([][]byte, len(recs))
	}
	seq, size := l.seq, 0
	for i := range recs {
		seq++
		recs[i].Seq = seq
		payload, err := json.Marshal(recs[i])
		if err != nil {
			return 0, fmt.Errorf("wal: encode: %w", err)
		}
		payloads[i] = payload
		size += len(payload) + 8
	}
	frame := make([]byte, 0, size)
	for _, p := range payloads {
		frame = appendFrame(frame, p)
	}

	pre := l.size
	werr := l.do(SiteAppend, func() error {
		n, err := l.f.Write(frame)
		l.size += int64(n)
		return err
	})
	if werr == nil {
		werr = l.do(SiteSync, func() error {
			l.syncs++
			return l.f.Sync()
		})
	}
	if werr != nil {
		_ = l.f.Truncate(pre)
		l.size = pre
		l.sealLocked()
		return 0, fmt.Errorf("wal: append seq %d..%d: %w", l.seq+1, seq, werr)
	}
	l.seq = seq
	l.appends += int64(len(recs))
	l.sinceSnap += len(recs)
	if l.sinceSnap >= l.every {
		// Never snapshot inline: the caller may hold broker or ledger
		// locks the capture needs. The flag is consumed by SnapshotDue.
		l.due = true
	}
	return seq, nil
}

// do runs op under the fault injector when one is configured.
func (l *Log) do(site string, op func() error) error {
	if l.faults == nil {
		return op()
	}
	return l.faults.Do(site, op)
}

// SnapshotDue consumes the snapshot-cadence flag: it reports true at
// most once per due snapshot, with no locks the capture path needs held.
func (l *Log) SnapshotDue() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	due := l.due
	l.due = false
	return due
}

// LastSeq returns the last assigned sequence number.
func (l *Log) LastSeq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.seq
}

// Seal closes the log for appending without flushing anything beyond
// what fsync already made durable — the crash-simulation hook.
func (l *Log) Seal() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.sealLocked()
}

func (l *Log) sealLocked() {
	if l.sealed {
		return
	}
	l.sealed = true
	if l.f != nil {
		_ = l.f.Close()
		l.f = nil
	}
}

// Stats reports appended records, fsyncs and snapshots landed.
func (l *Log) Stats() (appends, syncs, snapshots int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.appends, l.syncs, l.snapshots
}

// WriteSnapshot lands s atomically (temp file, fsync, rename, directory
// fsync), rotates the live segment and deletes fully superseded
// segments and older snapshots. The caller provides BaseSeq/LedgerSeq
// consistent with the captured state.
func (l *Log) WriteSnapshot(s *Snapshot) error {
	payload, err := json.Marshal(s)
	if err != nil {
		return fmt.Errorf("wal: encode snapshot: %w", err)
	}
	data := append([]byte(snapMagic), appendFrame(make([]byte, 0, len(payload)+8), payload)...)

	l.mu.Lock()
	defer l.mu.Unlock()
	if l.sealed {
		return ErrSealed
	}
	final := filepath.Join(l.dir, snapName(s.BaseSeq))
	tmp := final + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	if _, err := f.Write(data); err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		_ = os.Remove(tmp)
		return fmt.Errorf("wal: snapshot: %w", err)
	}
	if err := os.Rename(tmp, final); err != nil {
		_ = os.Remove(tmp)
		return fmt.Errorf("wal: snapshot: %w", err)
	}
	syncDir(l.dir)

	// Rotate so the replay suffix for this snapshot starts in its own
	// segment, then drop everything the snapshot supersedes.
	if err := l.rotateLocked(); err != nil {
		return err
	}
	l.truncateLocked(s.BaseSeq)
	l.sinceSnap = 0
	l.due = false
	l.snapshots++
	return nil
}

// truncateLocked deletes state a recovery can no longer need. One
// snapshot generation is kept back as a fallback against a corrupted
// newest snapshot, so the retained floor is the previous snapshot's
// base, not baseSeq: snapshots older than the previous one go, and so
// do segments whose records are all ≤ that floor (a segment's upper
// bound is the next segment's start − 1, so the live segment is never
// considered).
func (l *Log) truncateLocked(baseSeq uint64) {
	entries, err := os.ReadDir(l.dir)
	if err != nil {
		return
	}
	var snapSeqs []uint64
	for _, e := range entries {
		name := e.Name()
		if !strings.HasSuffix(name, snapSuffix) || !strings.HasPrefix(name, "snap-") {
			continue
		}
		v, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, "snap-"), snapSuffix), 16, 64)
		if err == nil {
			snapSeqs = append(snapSeqs, v)
		}
	}
	sort.Slice(snapSeqs, func(i, j int) bool { return snapSeqs[i] < snapSeqs[j] })
	floor := baseSeq
	if n := len(snapSeqs); n >= 2 {
		floor = snapSeqs[n-2]
	}
	var starts []uint64
	for _, e := range entries {
		if s, ok := segStart(e.Name()); ok {
			starts = append(starts, s)
		}
	}
	sort.Slice(starts, func(i, j int) bool { return starts[i] < starts[j] })
	for i := 0; i+1 < len(starts); i++ {
		if starts[i+1]-1 <= floor {
			_ = os.Remove(filepath.Join(l.dir, segmentName(starts[i])))
		}
	}
	for _, v := range snapSeqs {
		if v < floor {
			_ = os.Remove(filepath.Join(l.dir, snapName(v)))
		}
	}
	syncDir(l.dir)
}

// syncDir fsyncs a directory so renames and unlinks are durable; errors
// are ignored (some filesystems refuse directory fsync).
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		_ = d.Sync()
		_ = d.Close()
	}
}

// appendFrame appends one length+CRC framed payload to buf.
func appendFrame(buf, payload []byte) []byte {
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.ChecksumIEEE(payload))
	buf = append(buf, hdr[:]...)
	return append(buf, payload...)
}

// decodeFrame splits one frame off data. A clean end of input returns
// (nil, nil, nil); a partial or corrupt frame returns a typed error.
func decodeFrame(data []byte) (payload, rest []byte, err error) {
	if len(data) == 0 {
		return nil, nil, nil
	}
	if len(data) < 8 {
		return nil, nil, ErrTruncated
	}
	n := binary.LittleEndian.Uint32(data[0:4])
	if n > maxRecord {
		return nil, nil, ErrTooLarge
	}
	if uint32(len(data)-8) < n {
		return nil, nil, ErrTruncated
	}
	payload = data[8 : 8+n]
	if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(data[4:8]) {
		return nil, nil, ErrChecksum
	}
	return payload, data[8+n:], nil
}

// DecodeLog decodes a log file image (magic header plus frames). It
// never panics: it returns every record before the first corruption,
// plus the typed error that stopped it (nil for a clean file).
func DecodeLog(data []byte) ([]Record, error) {
	if len(data) < len(logMagic) || string(data[:len(logMagic)]) != logMagic {
		return nil, ErrBadMagic
	}
	data = data[len(logMagic):]
	var out []Record
	for len(data) > 0 {
		payload, rest, err := decodeFrame(data)
		if err != nil {
			return out, err
		}
		if payload == nil {
			break
		}
		var r Record
		if err := json.Unmarshal(payload, &r); err != nil {
			return out, fmt.Errorf("%w: %v", ErrBadRecord, err)
		}
		out = append(out, r)
		data = rest
	}
	return out, nil
}

// DecodeSnapshot decodes a snapshot file image.
func DecodeSnapshot(data []byte) (*Snapshot, error) {
	if len(data) < len(snapMagic) || string(data[:len(snapMagic)]) != snapMagic {
		return nil, ErrBadMagic
	}
	payload, rest, err := decodeFrame(data[len(snapMagic):])
	if err != nil {
		return nil, err
	}
	if payload == nil {
		return nil, ErrTruncated
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("%w: trailing bytes after snapshot frame", ErrBadRecord)
	}
	var s Snapshot
	if err := json.Unmarshal(payload, &s); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadRecord, err)
	}
	return &s, nil
}
