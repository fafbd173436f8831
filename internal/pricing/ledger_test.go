package pricing

import (
	"math/rand"
	"runtime"
	"slices"
	"strconv"
	"testing"
	"time"
	"unsafe"

	"gqosm/internal/sla"
)

// sliceLedger is the reference model of the ledger's retained list: one
// flat slice under the same retention contract — trim once the count
// reaches 2 × retain, down to exactly the most recent retain.
type sliceLedger struct {
	entries []Entry
	retain  int
	evicted int64
}

func (m *sliceLedger) trim() {
	if m.retain <= 0 || len(m.entries) <= m.retain {
		return
	}
	drop := len(m.entries) - m.retain
	m.evicted += int64(drop)
	m.entries = append([]Entry(nil), m.entries[drop:]...)
}

func (m *sliceLedger) setRetention(n int) {
	m.retain = max(n, 0)
	m.trim()
}

func (m *sliceLedger) record(e Entry) {
	m.entries = append(m.entries, e)
	if m.retain > 0 && len(m.entries) >= 2*m.retain {
		m.trim()
	}
}

// firstDiff is the first index at which got and want differ.
func firstDiff(got, want []Entry) int {
	for i := range min(len(got), len(want)) {
		if got[i] != want[i] {
			return i
		}
	}
	return min(len(got), len(want))
}

// checkLedger holds l's three views of its entries to the model.
func checkLedger(t *testing.T, step int, l *Ledger, m *sliceLedger) {
	t.Helper()
	if got := l.Entries(); !slices.Equal(got, m.entries) || (got == nil) != (len(m.entries) == 0) {
		t.Fatalf("step %d: Entries() (%d) differs from the model (%d) at %d", step, len(got), len(m.entries), firstDiff(got, m.entries))
	}
	var st State
	l.ExportWith(func(s State) { st = s })
	if !slices.Equal(st.Entries, m.entries) || st.Evicted != m.evicted || st.Retain != m.retain {
		t.Fatalf("step %d: exported %d entries, evicted %d, retain %d; model %d, %d, %d",
			step, len(st.Entries), st.Evicted, st.Retain, len(m.entries), m.evicted, m.retain)
	}
	if got := RestoreLedger(st).Entries(); !slices.Equal(got, m.entries) {
		t.Fatalf("step %d: restored Entries() (%d) differs from the model (%d) at %d", step, len(got), len(m.entries), firstDiff(got, m.entries))
	}
}

// TestLedgerMatchesSliceModel drives the chunked ledger and the slice
// model with one random sequence of Record bursts, SetRetention calls
// and snapshot round trips, starting at each retention that sits on or
// beside a block boundary or half of one, and compares every view after
// every step.
func TestLedgerMatchesSliceModel(t *testing.T) {
	retains := []int{0, 1, 255, 1023, 1024, 1025, ledgerChunk - 1, ledgerChunk, ledgerChunk + 1, 5000}
	for _, retain := range retains {
		t.Run(strconv.Itoa(retain), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(retain) + 1))
			l, m := NewLedger(), &sliceLedger{}
			var recorded, seen []Entry
			observe := func(l *Ledger) {
				l.SetObserver(func(e Entry) {
					if l.mu.TryLock() {
						l.mu.Unlock()
						t.Fatal("observer called without the ledger lock")
					}
					seen = append(seen, e)
				})
			}
			observe(l)
			l.SetRetention(retain)
			m.setRetention(retain)
			peak, observed := 0, 0
			for step := 0; step < 120; step++ {
				switch r := rng.Intn(20); {
				case r == 0:
					n := retains[rng.Intn(len(retains))]
					l.SetRetention(n)
					m.setRetention(n)
				case r == 1:
					// Carry on from a snapshot, as recovery does.
					l.ExportWith(func(st State) { l = RestoreLedger(st) })
					observe(l)
				case r == 2:
					l.SetRetention(retain)
					m.setRetention(retain)
				default:
					// Mostly short bursts, now and then more than a block.
					burst := 1 + rng.Intn(1+rng.Intn(1+rng.Intn(3*ledgerChunk/2)))
					for i := 0; i < burst; i++ {
						e := Entry{
							Kind:   EntryKind(1 + rng.Intn(4)),
							SLA:    sla.ID("sla-" + strconv.Itoa(len(recorded))),
							Amount: float64(len(recorded)),
							At:     at.Add(time.Duration(len(recorded)) * time.Second),
						}
						if rng.Intn(3) == 0 {
							e.Note = "note"
						}
						l.Record(e)
						m.record(e)
						recorded = append(recorded, e)
					}
				}
				peak = max(peak, len(m.entries))
				checkLedger(t, step, l, m)
				if len(seen) != len(recorded) || !slices.Equal(seen[observed:], recorded[observed:]) {
					t.Fatalf("step %d: observer saw %d entries, %d recorded", step, len(seen), len(recorded))
				}
				observed = len(seen)
			}
			if len(recorded) <= 3*ledgerChunk {
				t.Fatalf("recorded %d entries, want more than 3 chunks", len(recorded))
			}
			if (retain == 0 || retain > 3*ledgerChunk) && peak <= 3*ledgerChunk {
				t.Fatalf("peak retained %d entries, want more than 3 chunks", peak)
			}
		})
	}
}

// TestLedgerAllocGate: recording 10 blocks of entries into a warm ledger
// allocates one block per ledgerChunk entries plus at most one growth of
// the block list, and about the entries' own size in bytes. The flat
// slice it replaced re-copied its history on every growth: ~5× the
// entries' size on average, and at least 1.25× the history whenever the
// recorded entries crossed its capacity.
func TestLedgerAllocGate(t *testing.T) {
	const entries = 10 * ledgerChunk
	l := NewLedger()
	e := Entry{Kind: EntryCharge, SLA: "sla-0001", Amount: 1, At: at}
	record := func() {
		for i := 0; i < entries; i++ {
			l.Record(e)
		}
	}
	record()

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	record()
	runtime.ReadMemStats(&after)
	limit := 1.1 * entries * float64(unsafe.Sizeof(Entry{}))
	if got := after.TotalAlloc - before.TotalAlloc; float64(got) > limit {
		t.Errorf("recording %d entries: %d bytes, want ≤ %.0f", entries, got, limit)
	}

	// Twenty runs, so a runtime allocation such as a GC worker's start
	// is averaged away rather than read as the ledger's.
	if allocs := testing.AllocsPerRun(20, record); allocs > 11 {
		t.Errorf("recording %d entries: %v allocations, want ≤ 11", entries, allocs)
	}
}
