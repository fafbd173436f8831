package sim

import (
	"bytes"
	"os"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"
)

// Soak stability. The quick variant always runs (seconds);
// the full ≥1M-op variant is opt-in via GQOSM_FULL_SOAK because its
// wall-time (minutes under -race) does not belong in the tier-1 loop —
// the nightly soak job sets the variable.

// The process-health bounds a soak is held to. They read the runtime and
// the wall clock, so they are judged here, not in the report.
const (
	// soakGoroutineSlack is the allowed goroutine growth over the run's
	// starting count.
	soakGoroutineSlack = 16
	// soakHeapFactor bounds the maximum sampled heap against the first
	// window's baseline (a 32 MiB floor absorbs tiny-heap noise).
	soakHeapFactor = 8
	// soakTailFactor bounds the median window time of the run's second
	// half against the first half's.
	soakTailFactor = 8
)

// health is one soak's process-health samples, one per window.
type health struct {
	goroutinesStart int
	goroutines      []int
	heap            []uint64
	// windows is each window's wall time. A window replays a fixed number
	// of arrivals, so it is the time per operation up to a constant.
	windows []time.Duration
}

// runSoak replays the named scenario in soak mode and samples process
// health at every window through the soak's window hook. Each sample's
// own cost (a forced GC) is kept out of the next window's time.
func runSoak(t *testing.T, name string, cfg ScenarioConfig) (*Report, *health) {
	t.Helper()
	sc, ok := LookupScenario(name)
	if !ok {
		t.Fatalf("unknown scenario %q", name)
	}
	h := &health{goroutinesStart: runtime.NumGoroutine()}
	mark := time.Now()
	r, err := soak(sc, cfg, func(int) {
		h.windows = append(h.windows, time.Since(mark))
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		h.goroutines = append(h.goroutines, runtime.NumGoroutine())
		h.heap = append(h.heap, ms.HeapAlloc)
		mark = time.Now()
	})
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return r, h
}

// median is the lower median of an unsorted slice.
func median(v []time.Duration) time.Duration {
	s := slices.Clone(v)
	slices.Sort(s)
	return s[(len(s)-1)/2]
}

func checkStable(t *testing.T, r *Report, h *health) {
	t.Helper()
	name := r.Config["scenario"]
	if r.Oracle.Violations != 0 || !r.Oracle.Gates["verified"] {
		t.Errorf("%s: oracle violations or failed scenario assertions: %+v", name, r.Oracle)
	}
	if !r.Oracle.Gates["stable"] {
		t.Errorf("%s: unstable: %v", name, r.Oracle.Details)
	}
	if r.Failed() {
		t.Errorf("%s: report marked failed", name)
	}
	if len(h.windows) != soakWindows || len(r.Outcome.Soak.Sessions) != soakWindows {
		t.Fatalf("%s: %d health samples and %d working-set windows, want %d of each",
			name, len(h.windows), len(r.Outcome.Soak.Sessions), soakWindows)
	}
	if most, lim := slices.Max(h.goroutines), h.goroutinesStart+soakGoroutineSlack; most > lim {
		t.Errorf("%s: goroutines grew %d -> %d (limit %d): leak", name, h.goroutinesStart, most, lim)
	}
	if most, lim := slices.Max(h.heap), soakHeapFactor*max(h.heap[0], 32<<20); most > lim {
		t.Errorf("%s: heap grew %d -> %d bytes (limit %d): working set unbounded", name, h.heap[0], most, lim)
	}
	half := len(h.windows) / 2
	if first, last := median(h.windows[:half]), median(h.windows[half:]); last > soakTailFactor*first {
		t.Errorf("%s: median window time rose %v -> %v (limit %v): tail not flat", name, first, last, soakTailFactor*first)
	}
}

func TestSoakStabilityQuick(t *testing.T) {
	ops := 60000
	if testing.Short() {
		ops = 20000
	}
	for _, name := range []string{"diurnal", "lease-churn"} {
		t.Run(name, func(t *testing.T) {
			r, h := runSoak(t, name, ScenarioConfig{Seed: 1, Ops: ops})
			checkStable(t, r, h)
			if r.Outcome.Ops < int64(ops)/4 {
				t.Errorf("executed only %d broker ops for a %d-op budget", r.Outcome.Ops, ops)
			}
		})
	}
}

// TestSoakStabilityFull is the acceptance soak: over one million broker
// operations on the virtual clock with the oracle checked continuously,
// a bounded working set, bounded goroutines and heap, and a flat window
// time.
func TestSoakStabilityFull(t *testing.T) {
	if testing.Short() {
		t.Skip("full soak skipped in -short mode")
	}
	if os.Getenv("GQOSM_FULL_SOAK") == "" {
		t.Skip("full soak is opt-in: set GQOSM_FULL_SOAK=1 (the nightly soak job does)")
	}
	// ~0.58 executed broker ops per budgeted op for diurnal (rejected
	// arrivals are single-call), so a 2M budget clears 1M executed.
	r, h := runSoak(t, "diurnal", ScenarioConfig{Seed: 1, Ops: 2000000})
	checkStable(t, r, h)
	if r.Outcome.Ops < 1000000 {
		t.Errorf("executed %d broker ops, want >= 1M", r.Outcome.Ops)
	}
}

// A soak report, working set included, is byte-identical across runs
// with one seed.
func TestSoakDeterministicCore(t *testing.T) {
	cfg := ScenarioConfig{Seed: 3, Ops: 15000}
	r1, _ := runSoak(t, "lease-churn", cfg)
	r2, _ := runSoak(t, "lease-churn", cfg)
	if c1, c2 := marshal(t, r1), marshal(t, r2); !bytes.Equal(c1, c2) || r1.Digest != r2.Digest {
		t.Errorf("nondeterministic soak report:\n%s\nvs\n%s", c1, c2)
	}
	if len(r1.Outcome.Soak.LedgerEntries) != soakWindows {
		t.Errorf("soak block missing its windows: %+v", r1.Outcome.Soak)
	}
}

// The stable gate fails a count that grows with the operations performed
// and passes one that stays put.
func TestSoakJudgeFlagsGrowth(t *testing.T) {
	flat, leak := make([]int, soakWindows), make([]int, soakWindows)
	for i := range flat {
		flat[i] = 500 + 50*(i%3)
		leak[i] = 100 * (i + 1)
	}
	ok := &SoakTally{Sessions: flat, Reservations: flat, LedgerEntries: flat, Timers: flat}
	if problems := ok.judge(); len(problems) != 0 {
		t.Errorf("a bounded working set was judged unstable: %v", problems)
	}
	leaky := &SoakTally{Sessions: flat, Reservations: leak, LedgerEntries: flat, Timers: flat}
	if problems := leaky.judge(); len(problems) != 1 || !strings.Contains(problems[0], "reservations") {
		t.Errorf("a linearly growing reservation count: problems %v, want one naming reservations", problems)
	}
}
