package sim

import (
	"fmt"
	"runtime"
	"sort"
)

// This file is the long-run soak configuration: RunSoak replays a scenario for
// a large number of broker operations on the virtual clock, with the
// working set bounded (terminal-state pruning plus ledger retention), and
// samples process health — goroutine count, heap, rolling admission p99 —
// at every quiesce window. The oracle still runs continuously; on top of
// it the soak verdict asserts the process is *stable*: goroutines and
// heap bounded, tail latency flat. The samples are runtime-derived, so
// they sit under the report's latency key ("soak"); the verdict is the
// oracle's stable gate.

// The sampling cadence and the stability verdict's bounds.
const (
	// soakWindows is the number of sampling windows, the run's quiesce
	// points.
	soakWindows = 40
	// soakLedgerRetention bounds the broker ledger's entry window
	// (aggregates stay exact across eviction).
	soakLedgerRetention = 4096
	// soakGoroutineSlack is the allowed goroutine growth over the run's
	// starting count.
	soakGoroutineSlack = 16
	// soakHeapFactor bounds the maximum sampled heap against the first
	// window's baseline (a 32 MiB floor absorbs tiny-heap noise).
	soakHeapFactor = 8.0
	// soakP99Factor bounds the median window-p99 of the run's second half
	// against the first half's (a 50 µs floor absorbs scheduler noise on
	// very fast admissions).
	soakP99Factor = 8.0
)

// soakWindow is one sampling point, taken at a quiesce barrier.
type soakWindow struct {
	Window     int     `json:"window"`
	Ops        int64   `json:"ops"`
	Goroutines int     `json:"goroutines"`
	HeapBytes  uint64  `json:"heap_bytes"`
	P99MS      float64 `json:"p99_ms"` // admission p99 within this window
	Samples    int     `json:"samples"`
}

// soakStats is the runtime-health block of a soak report.
type soakStats struct {
	Windows []soakWindow `json:"windows"`

	GoroutinesStart int    `json:"goroutines_start"`
	GoroutinesMax   int    `json:"goroutines_max"`
	HeapBaseBytes   uint64 `json:"heap_base_bytes"`
	HeapMaxBytes    uint64 `json:"heap_max_bytes"`

	// P99FirstHalfMS and P99LastHalfMS are the medians of the window
	// p99s over each half of the run — the flat-tail comparison.
	P99FirstHalfMS float64 `json:"p99_first_half_ms"`
	P99LastHalfMS  float64 `json:"p99_last_half_ms"`
}

// RunSoak replays the scenario in long-run mode: working set bounded,
// runtime health sampled per window, stability asserted. A non-nil error
// means the harness itself failed; oracle violations, assertion failures
// and instability land in the report.
func RunSoak(sc Scenario, cfg ScenarioConfig) (*Report, error) {
	run, err := newScenarioRun(sc, cfg, soakWindows)
	if err != nil {
		return nil, err
	}
	defer run.engine.topo.close()
	run.config["soak"] = true
	// Bound the working set: terminal state (broker sessions, GARA
	// reservations, GRAM jobs) is compacted at every window, the ledger
	// keeps a fixed entry window.
	run.engine.prune = true
	run.Cluster.Broker.Ledger().SetRetention(soakLedgerRetention)

	stats := &soakStats{GoroutinesStart: runtime.NumGoroutine()}
	var admitMS []float64 // admission wall-clock ms within the current window
	run.onAdmission = func(ms float64) { admitMS = append(admitMS, ms) }
	run.engine.onQuiesce = func(window int) {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		sort.Float64s(admitMS)
		stats.Windows = append(stats.Windows, soakWindow{
			Window:     window,
			Ops:        run.out.Ops,
			Goroutines: runtime.NumGoroutine(),
			HeapBytes:  ms.HeapAlloc,
			P99MS:      percentile(admitMS, 0.99),
			Samples:    len(admitMS),
		})
		admitMS = admitMS[:0]
	}

	rep, err := run.play()
	if err != nil {
		return nil, err
	}
	problems := judge(stats)
	rep.Oracle.Gates["stable"] = len(problems) == 0
	rep.Oracle.Details = append(rep.Oracle.Details, problems...)
	rep.Latency["soak"] = stats
	return rep.Seal(), nil
}

// judge fills the aggregate fields and returns what breaks the stability
// verdict (nothing when the run was stable).
func judge(stats *soakStats) (problems []string) {
	if len(stats.Windows) == 0 {
		return []string{"soak: no sampling windows"}
	}
	stats.HeapBaseBytes = stats.Windows[0].HeapBytes
	var p99s []float64
	for _, w := range stats.Windows {
		stats.GoroutinesMax = max(stats.GoroutinesMax, w.Goroutines)
		stats.HeapMaxBytes = max(stats.HeapMaxBytes, w.HeapBytes)
		if w.Samples > 0 {
			p99s = append(p99s, w.P99MS)
		}
	}
	half := len(p99s) / 2
	stats.P99FirstHalfMS = medianOf(p99s[:half])
	stats.P99LastHalfMS = medianOf(p99s[half:])

	if lim := stats.GoroutinesStart + soakGoroutineSlack; stats.GoroutinesMax > lim {
		problems = append(problems,
			fmt.Sprintf("soak: goroutines grew %d -> %d (limit %d): leak", stats.GoroutinesStart, stats.GoroutinesMax, lim))
	}
	heapBase := max(stats.HeapBaseBytes, 32<<20)
	if lim := uint64(float64(heapBase) * soakHeapFactor); stats.HeapMaxBytes > lim {
		problems = append(problems,
			fmt.Sprintf("soak: heap grew %d -> %d bytes (limit %d): working set unbounded", stats.HeapBaseBytes, stats.HeapMaxBytes, lim))
	}
	first := max(stats.P99FirstHalfMS, 0.05)
	if half > 0 && stats.P99LastHalfMS > soakP99Factor*first {
		problems = append(problems,
			fmt.Sprintf("soak: admission p99 rose %.3fms -> %.3fms (limit %.3fms): tail not flat",
				stats.P99FirstHalfMS, stats.P99LastHalfMS, soakP99Factor*first))
	}
	return problems
}

// medianOf returns the median of an unsorted slice (0 when empty).
func medianOf(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return percentile(s, 0.5)
}
