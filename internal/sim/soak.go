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
// heap bounded, tail latency flat. Everything under the "soak" JSON key
// (like "latency") is wall-clock/runtime derived and therefore excluded
// from determinism comparisons.

// SoakConfig sizes a soak run. The embedded ScenarioConfig is used as in
// RunScenario except that Phases is driven by Windows.
type SoakConfig struct {
	ScenarioConfig
	// Windows is the number of sampling windows (default 40).
	Windows int
}

// The stability verdict's bounds.
const (
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

// SoakWindow is one sampling point, taken at a quiesce barrier.
type SoakWindow struct {
	Window     int     `json:"window"`
	Ops        int64   `json:"ops"`
	Goroutines int     `json:"goroutines"`
	HeapBytes  uint64  `json:"heap_bytes"`
	P99MS      float64 `json:"p99_ms"` // admission p99 within this window
	Samples    int     `json:"samples"`
}

// SoakStats is the runtime-health block of a soak report. Like the
// latency block it is not deterministic; strip it (jq 'del(.soak)')
// before byte-diffing soak reports.
type SoakStats struct {
	Windows []SoakWindow `json:"windows"`

	GoroutinesStart int    `json:"goroutines_start"`
	GoroutinesMax   int    `json:"goroutines_max"`
	HeapBaseBytes   uint64 `json:"heap_base_bytes"`
	HeapMaxBytes    uint64 `json:"heap_max_bytes"`

	// P99FirstHalfMS and P99LastHalfMS are the medians of the window
	// p99s over each half of the run — the flat-tail comparison.
	P99FirstHalfMS float64 `json:"p99_first_half_ms"`
	P99LastHalfMS  float64 `json:"p99_last_half_ms"`

	Stable   bool     `json:"stable"`
	Problems []string `json:"problems,omitempty"`
}

// SoakReport is a scenario report plus the soak-health verdict.
type SoakReport struct {
	ScenarioReport
	Soak *SoakStats `json:"soak"`
}

// Failed gates CI: any oracle violation, scenario assertion failure, or
// instability verdict.
func (r *SoakReport) Failed() bool {
	return r.ScenarioReport.Failed() || r.Soak == nil || !r.Soak.Stable
}

// RunSoak replays the scenario in long-run mode: working set bounded,
// runtime health sampled per window, stability asserted. A non-nil error
// means the harness itself failed; oracle violations, assertion failures
// and instability land in the report (see SoakReport.Failed).
func RunSoak(sc Scenario, cfg SoakConfig) (*SoakReport, error) {
	orDefault(&cfg.Windows, 40)
	cfg.Phases = cfg.Windows
	run, err := newScenarioRun(sc, cfg.ScenarioConfig)
	if err != nil {
		return nil, err
	}
	defer run.engine.topo.close()
	// Bound the working set: terminal state (broker sessions, GARA
	// reservations, GRAM jobs) is compacted at every window, the ledger
	// keeps a fixed entry window.
	run.engine.prune = true
	run.Cluster.Broker.Ledger().SetRetention(soakLedgerRetention)

	stats := &SoakStats{GoroutinesStart: runtime.NumGoroutine()}
	lastLat := 0
	run.engine.onQuiesce = func(window int) {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		lat := run.latencies[lastLat:]
		lastLat = len(run.latencies)
		w := SoakWindow{
			Window:     window,
			Ops:        run.Report.Ops,
			Goroutines: runtime.NumGoroutine(),
			HeapBytes:  ms.HeapAlloc,
			Samples:    len(lat),
		}
		if s := summarizeLatency(lat); s != nil {
			w.P99MS = s.P99MS
		}
		stats.Windows = append(stats.Windows, w)
	}

	rep, err := run.play()
	if err == nil {
		judge(stats)
	}
	return &SoakReport{ScenarioReport: *rep, Soak: stats}, err
}

// judge fills the aggregate fields and the stability verdict.
func judge(stats *SoakStats) {
	if len(stats.Windows) == 0 {
		stats.Problems = append(stats.Problems, "no sampling windows")
		return
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
		stats.Problems = append(stats.Problems,
			fmt.Sprintf("goroutines grew %d -> %d (limit %d): leak", stats.GoroutinesStart, stats.GoroutinesMax, lim))
	}
	heapBase := max(stats.HeapBaseBytes, 32<<20)
	if lim := uint64(float64(heapBase) * soakHeapFactor); stats.HeapMaxBytes > lim {
		stats.Problems = append(stats.Problems,
			fmt.Sprintf("heap grew %d -> %d bytes (limit %d): working set unbounded", stats.HeapBaseBytes, stats.HeapMaxBytes, lim))
	}
	first := max(stats.P99FirstHalfMS, 0.05)
	if half > 0 && stats.P99LastHalfMS > soakP99Factor*first {
		stats.Problems = append(stats.Problems,
			fmt.Sprintf("admission p99 rose %.3fms -> %.3fms (limit %.3fms): tail not flat",
				stats.P99FirstHalfMS, stats.P99LastHalfMS, soakP99Factor*first))
	}
	stats.Stable = len(stats.Problems) == 0
}

// medianOf returns the median of an unsorted slice (0 when empty).
func medianOf(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return percentile(s, 0.5)
}
