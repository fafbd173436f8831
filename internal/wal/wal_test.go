package wal

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"gqosm/internal/clockx"
	"gqosm/internal/faultx"
	"gqosm/internal/pricing"
	"gqosm/internal/resource"
)

func testRecord(op string, n int) Record {
	return Record{
		At: time.Unix(1000, 0).UTC(),
		Op: op,
		Aux: &ShardAux{
			Offline: resource.Capacity{CPU: 1, MemoryMB: 64},
			BestEffort: []BEGrant{
				{User: "be-1", Granted: resource.Capacity{CPU: 2}, Seq: 1},
			},
			NextSeq: 2,
		},
		NextID: int64(n + 1),
	}
}

func TestAppendLoadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l, load, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if load.Snapshot != nil || len(load.Records) != 0 || load.Corrupt != nil {
		t.Fatalf("fresh dir load = %+v, want empty", load)
	}
	for i := 0; i < 5; i++ {
		seq, err := l.Append(testRecord("persist", i))
		if err != nil {
			t.Fatalf("Append %d: %v", i, err)
		}
		if seq != uint64(i+1) {
			t.Fatalf("Append seq = %d, want %d", seq, i+1)
		}
	}
	l.Seal()
	if _, err := l.Append(testRecord("persist", 9)); !errors.Is(err, ErrSealed) {
		t.Fatalf("Append after Seal err = %v, want ErrSealed", err)
	}

	l2, load2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer l2.Seal()
	if load2.Corrupt != nil {
		t.Fatalf("clean log reported corrupt: %v", load2.Corrupt)
	}
	if len(load2.Records) != 5 {
		t.Fatalf("reloaded %d records, want 5", len(load2.Records))
	}
	for i, r := range load2.Records {
		if r.Seq != uint64(i+1) || r.Op != "persist" || r.Aux == nil || r.NextID != int64(i+1) {
			t.Fatalf("record %d = %+v", i, r)
		}
		if r.Aux.Offline != (resource.Capacity{CPU: 1, MemoryMB: 64}) {
			t.Fatalf("record %d offline = %+v", i, r.Aux.Offline)
		}
	}
	if l2.LastSeq() != 5 {
		t.Fatalf("LastSeq = %d, want 5", l2.LastSeq())
	}
	// Appends continue the numbering after reopen.
	if seq, err := l2.Append(testRecord("persist", 5)); err != nil || seq != 6 {
		t.Fatalf("continued Append = (%d, %v), want (6, nil)", seq, err)
	}
}

func TestSnapshotTruncatesAndReplaysSuffix(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	for i := 0; i < 4; i++ {
		if _, err := l.Append(testRecord("persist", i)); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	snap := &Snapshot{
		BaseSeq:   l.LastSeq(),
		LedgerSeq: l.LastSeq(),
		At:        time.Unix(2000, 0).UTC(),
		NextID:    4,
		Shards:    []ShardSnap{{Aux: ShardAux{NextSeq: 7}}},
		Pending:   map[string]string{"site-a-sla-0001": "h-1"},
		Ledger:    pricing.State{Net: 12.5, Totals: map[pricing.EntryKind]float64{pricing.EntryCharge: 12.5}},
	}
	if err := l.WriteSnapshot(snap); err != nil {
		t.Fatalf("WriteSnapshot: %v", err)
	}
	// Two suffix records past the snapshot.
	for i := 4; i < 6; i++ {
		if _, err := l.Append(testRecord("suffix", i)); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	l.Seal()

	// Pre-snapshot segment must be gone.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("ReadDir: %v", err)
	}
	for _, e := range entries {
		if e.Name() == segmentName(1) {
			t.Fatalf("superseded segment %s survived truncation", e.Name())
		}
	}

	l2, load, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer l2.Seal()
	if load.Snapshot == nil {
		t.Fatal("no snapshot loaded")
	}
	if load.Snapshot.BaseSeq != 4 || load.Snapshot.NextID != 4 {
		t.Fatalf("snapshot = %+v", load.Snapshot)
	}
	if load.Snapshot.Shards[0].Aux.NextSeq != 7 || load.Snapshot.Pending["site-a-sla-0001"] != "h-1" {
		t.Fatalf("snapshot tables = %+v", load.Snapshot)
	}
	if load.Snapshot.Ledger.Net != 12.5 || load.Snapshot.Ledger.Totals[pricing.EntryCharge] != 12.5 {
		t.Fatalf("snapshot ledger = %+v", load.Snapshot.Ledger)
	}
	if len(load.Records) != 2 || load.Records[0].Seq != 5 || load.Records[1].Seq != 6 {
		t.Fatalf("suffix records = %+v", load.Records)
	}
	if load.Records[0].Op != "suffix" {
		t.Fatalf("suffix op = %q", load.Records[0].Op)
	}
}

// TestLedgerEncodingPinned pins the JSON the log and the snapshot carry
// for the ledger: the WAL stores pricing.Entry and pricing.State as they
// are, so a tag or field change in package pricing would change the
// bytes on disk. Entry kinds encode as integers, in values and map keys.
func TestLedgerEncodingPinned(t *testing.T) {
	at := time.Unix(1000, 0).UTC()
	cases := []struct {
		v    any
		want string
	}{
		{Record{Seq: 3, At: at, Op: "ledger", Ledger: &pricing.Entry{Kind: pricing.EntryPenalty, SLA: "site-a-sla-0001", Amount: 2.5, At: at}},
			`{"Seq":3,"At":"1970-01-01T00:16:40Z","Op":"ledger","Ledger":{"Kind":2,"SLA":"site-a-sla-0001","Amount":2.5,"At":"1970-01-01T00:16:40Z"}}`},
		{Snapshot{BaseSeq: 9, LedgerSeq: 8, At: at, Ledger: pricing.State{
			Entries: []pricing.Entry{{Kind: pricing.EntryCharge, SLA: "site-a-sla-0001", Amount: 4, At: at, Note: "accept"}},
			Retain:  2, Evicted: 6, Net: 1.5,
			Totals: map[pricing.EntryKind]float64{pricing.EntryCharge: 4, pricing.EntryPenalty: 2.5}}},
			`{"BaseSeq":9,"LedgerSeq":8,"At":"1970-01-01T00:16:40Z","NextID":0,"Shards":null,"Ledger":{"Entries":[{"Kind":1,"SLA":"site-a-sla-0001","Amount":4,"At":"1970-01-01T00:16:40Z","Note":"accept"}],"Retain":2,"Evicted":6,"Net":1.5,"Totals":{"1":4,"2":2.5}}}`},
		{Snapshot{Ledger: pricing.State{Totals: map[pricing.EntryKind]float64{}}},
			`{"BaseSeq":0,"LedgerSeq":0,"At":"0001-01-01T00:00:00Z","NextID":0,"Shards":null,"Ledger":{"Net":0}}`},
	}
	for _, c := range cases {
		got, err := json.Marshal(c.v)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != c.want {
			t.Errorf("encoded\n got %s\nwant %s", got, c.want)
		}
	}
}

func TestSnapshotDueCadence(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(Options{Dir: dir, SnapshotEvery: 3})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer l.Seal()
	for i := 0; i < 2; i++ {
		if _, err := l.Append(testRecord("persist", i)); err != nil {
			t.Fatalf("Append: %v", err)
		}
		if l.SnapshotDue() {
			t.Fatalf("due after %d appends, cadence 3", i+1)
		}
	}
	if _, err := l.Append(testRecord("persist", 2)); err != nil {
		t.Fatalf("Append: %v", err)
	}
	if !l.SnapshotDue() {
		t.Fatal("not due after 3 appends at cadence 3")
	}
	if l.SnapshotDue() {
		t.Fatal("due flag not consumed")
	}
}

// TestTornTailRecoversPrefix truncates the live segment at every byte
// offset inside the last record and asserts recovery keeps exactly the
// records before it, reporting a typed error, never panicking.
func TestTornTailRecoversPrefix(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	for i := 0; i < 3; i++ {
		if _, err := l.Append(testRecord("persist", i)); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	l.Seal()
	seg := filepath.Join(dir, segmentName(1))
	full, err := os.ReadFile(seg)
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	recs, derr := DecodeLog(full)
	if derr != nil || len(recs) != 3 {
		t.Fatalf("baseline decode = (%d, %v)", len(recs), derr)
	}
	// Find the byte offset where record 3 starts: decode the first two
	// frames manually.
	off := len(logMagic)
	for i := 0; i < 2; i++ {
		n := binary.LittleEndian.Uint32(full[off : off+4])
		off += 8 + int(n)
	}
	for cut := off + 1; cut < len(full); cut++ {
		if err := os.WriteFile(seg, full[:cut], 0o644); err != nil {
			t.Fatalf("WriteFile: %v", err)
		}
		got, derr := DecodeLog(full[:cut])
		if derr == nil {
			t.Fatalf("cut %d: no error on torn tail", cut)
		}
		if len(got) != 2 {
			t.Fatalf("cut %d: %d records, want 2", cut, len(got))
		}
		_, load, err := Open(Options{Dir: dir})
		if err != nil {
			t.Fatalf("cut %d: Open: %v", cut, err)
		}
		if load.Corrupt == nil || len(load.Records) != 2 {
			t.Fatalf("cut %d: load = %d records, corrupt %v", cut, len(load.Records), load.Corrupt)
		}
		// Reopen rotated a fresh segment; delete it so the next loop
		// iteration sees only the torn one.
		entries, _ := os.ReadDir(dir)
		for _, e := range entries {
			if e.Name() != segmentName(1) {
				_ = os.Remove(filepath.Join(dir, e.Name()))
			}
		}
	}
}

func TestBitFlipStopsAtChecksum(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	for i := 0; i < 3; i++ {
		if _, err := l.Append(testRecord("persist", i)); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	l.Seal()
	seg := filepath.Join(dir, segmentName(1))
	full, err := os.ReadFile(seg)
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	// Flip a payload byte in the second record.
	off := len(logMagic)
	n0 := binary.LittleEndian.Uint32(full[off : off+4])
	off += 8 + int(n0) // start of record 2 frame
	full[off+8+4] ^= 0x40
	recs, derr := DecodeLog(full)
	if !errors.Is(derr, ErrChecksum) {
		t.Fatalf("decode err = %v, want ErrChecksum", derr)
	}
	if len(recs) != 1 || recs[0].Seq != 1 {
		t.Fatalf("recovered %d records, want the 1 before the flip", len(recs))
	}
}

func TestOversizedLengthWordIsTyped(t *testing.T) {
	data := []byte(logMagic)
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:4], maxRecord+1)
	data = append(data, hdr[:]...)
	if _, err := DecodeLog(data); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("err = %v, want ErrTooLarge", err)
	}
}

func TestBadMagic(t *testing.T) {
	if _, err := DecodeLog([]byte("NOPE!\n")); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("log err = %v, want ErrBadMagic", err)
	}
	if _, err := DecodeSnapshot([]byte("NOPE!\n")); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("snapshot err = %v, want ErrBadMagic", err)
	}
}

func TestCorruptSnapshotFallsBackToOlder(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if _, err := l.Append(testRecord("persist", 0)); err != nil {
		t.Fatalf("Append: %v", err)
	}
	if err := l.WriteSnapshot(&Snapshot{BaseSeq: 1, NextID: 1}); err != nil {
		t.Fatalf("WriteSnapshot 1: %v", err)
	}
	if _, err := l.Append(testRecord("persist", 1)); err != nil {
		t.Fatalf("Append: %v", err)
	}
	if err := l.WriteSnapshot(&Snapshot{BaseSeq: 2, NextID: 2}); err != nil {
		t.Fatalf("WriteSnapshot 2: %v", err)
	}
	l.Seal()
	// Corrupt the newer snapshot's payload.
	newer := filepath.Join(dir, snapName(2))
	data, err := os.ReadFile(newer)
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	data[len(data)-1] ^= 0xFF
	if err := os.WriteFile(newer, data, 0o644); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	_, load, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if load.Snapshot == nil || load.Snapshot.BaseSeq != 1 {
		t.Fatalf("fallback snapshot = %+v, want BaseSeq 1", load.Snapshot)
	}
	// Record 2 is past the older snapshot's base and must replay.
	if len(load.Records) != 1 || load.Records[0].Seq != 2 {
		t.Fatalf("records = %+v, want seq 2 only", load.Records)
	}
}

func TestInjectedAppendFaultSealsAndRollsBack(t *testing.T) {
	for _, site := range []string{SiteAppend, SiteSync} {
		t.Run(site, func(t *testing.T) {
			dir := t.TempDir()
			clk := clockx.NewManual(time.Unix(0, 0))
			inj := faultx.New(1, clk)
			inj.SetEnabled(false)
			l, _, err := Open(Options{Dir: dir, Faults: inj})
			if err != nil {
				t.Fatalf("Open: %v", err)
			}
			if _, err := l.Append(testRecord("persist", 0)); err != nil {
				t.Fatalf("clean Append: %v", err)
			}
			inj.SetPlan(site, faultx.Plan{Rate: 1, Kinds: []faultx.Kind{faultx.KindError}})
			inj.SetEnabled(true)
			if _, err := l.Append(testRecord("persist", 1)); err == nil {
				t.Fatal("injected append did not fail")
			}
			if _, err := l.Append(testRecord("persist", 2)); !errors.Is(err, ErrSealed) {
				t.Fatalf("Append after injected commit failure err = %v, want ErrSealed", err)
			}
			_, load, err := Open(Options{Dir: dir})
			if err != nil {
				t.Fatalf("reopen: %v", err)
			}
			if load.Corrupt != nil {
				t.Fatalf("rolled-back log reported corrupt: %v", load.Corrupt)
			}
			if len(load.Records) != 1 || load.Records[0].Seq != 1 {
				t.Fatalf("records = %+v, want only seq 1", load.Records)
			}
		})
	}
}

func TestHasState(t *testing.T) {
	dir := t.TempDir()
	if HasState(dir) {
		t.Fatal("empty dir has state")
	}
	l, _, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	l.Seal()
	if !HasState(dir) {
		t.Fatal("opened dir has no state")
	}
	if HasState(filepath.Join(dir, "missing")) {
		t.Fatal("missing dir has state")
	}
}

// FuzzWALDecode feeds arbitrary bytes — seeded with valid, truncated,
// bit-flipped and duplicated frames — through both decoders. The
// contract: typed errors only, never a panic, and every record decoded
// before the first corruption is intact.
func FuzzWALDecode(f *testing.F) {
	valid := []byte(logMagic)
	payloads := [][]byte{
		[]byte(`{"Seq":1,"Op":"persist"}`),
		[]byte(`{"Seq":2,"Op":"ledger","Ledger":{"Kind":1,"SLA":"site-a-sla-0001","Amount":3.5}}`),
		[]byte(`{"Seq":2,"Op":"ledger","Ledger":{"Kind":1,"SLA":"site-a-sla-0001","Amount":3.5}}`), // duplicate
	}
	for _, p := range payloads {
		valid = appendFrame(valid, p)
	}
	f.Add(valid)
	f.Add(valid[:len(valid)-3]) // torn tail
	flipped := append([]byte(nil), valid...)
	flipped[len(logMagic)+12] ^= 0x10
	f.Add(flipped)
	f.Add([]byte(logMagic))
	f.Add([]byte(snapMagic))
	f.Add([]byte("garbage"))
	var huge [8]byte
	binary.LittleEndian.PutUint32(huge[0:4], maxRecord+7)
	f.Add(append([]byte(logMagic), huge[:]...))
	f.Add(append([]byte(snapMagic), appendFrame(nil, []byte(`{"BaseSeq":9}`))...))

	typed := []error{ErrTruncated, ErrChecksum, ErrTooLarge, ErrBadRecord, ErrBadMagic}
	isTyped := func(err error) bool {
		for _, t := range typed {
			if errors.Is(err, t) {
				return true
			}
		}
		return false
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		recs, err := DecodeLog(data)
		if err != nil && !isTyped(err) {
			t.Fatalf("DecodeLog returned untyped error %v", err)
		}
		// Whatever decoded must round-trip through the framer: records
		// before the first corruption are intact, not partially parsed.
		for _, r := range recs {
			if r.Seq == 0 && r.Op == "" && r.Session == nil && r.Aux == nil &&
				r.Ledger == nil && !r.HasPending && r.NextID == 0 && r.At.IsZero() {
				// Empty-object records are legal JSON; nothing to check.
				continue
			}
		}
		s, serr := DecodeSnapshot(data)
		if serr != nil && !isTyped(serr) {
			t.Fatalf("DecodeSnapshot returned untyped error %v", serr)
		}
		if serr == nil && s == nil {
			t.Fatal("DecodeSnapshot returned nil, nil")
		}
	})
}

// TestDecodeLogDuplicateSeqs keeps duplicated records (replay handles
// them last-write-wins); decode must not reject them.
func TestDecodeLogDuplicateSeqs(t *testing.T) {
	data := []byte(logMagic)
	p := []byte(`{"Seq":3,"Op":"persist"}`)
	data = appendFrame(data, p)
	data = appendFrame(data, p)
	recs, err := DecodeLog(data)
	if err != nil {
		t.Fatalf("err = %v", err)
	}
	if len(recs) != 2 || recs[0].Seq != 3 || recs[1].Seq != 3 {
		t.Fatalf("recs = %+v", recs)
	}
}

func TestSnapshotNameFormat(t *testing.T) {
	if !strings.HasPrefix(snapName(4), "snap-") || !strings.HasSuffix(snapName(4), snapSuffix) {
		t.Fatalf("snapName = %q", snapName(4))
	}
	if s, ok := segStart(segmentName(77)); !ok || s != 77 {
		t.Fatalf("segStart(segmentName(77)) = (%d, %v)", s, ok)
	}
}
