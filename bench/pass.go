package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"
)

// limits bounds the timed part of a pass: by wall time, or by a session
// count when a pass must repeat another exactly (the traced pass, tests).
type limits struct {
	seconds  float64
	sessions int
}

// A timed pass sets up setupRepeats times and goes on, up to
// maxSetupRepeats, until set-up has taken setupFloor in all: setup_s is the
// median, because one assembly of tens of milliseconds does not time
// steadily.
const (
	setupRepeats    = 5
	maxSetupRepeats = 64
	setupFloor      = 2 * time.Second
)

// allocSessions is how many sessions the allocation metrics cover. A
// count, not the whole time-bounded run: some tables grow with the
// sessions a run gets through (WAL snapshots carry the whole ledger), so
// the per-session average would follow the speed of the box.
const allocSessions = 16 * roundSessions

// recoverRepeats is how many crash-and-recover cycles end durable_burst8.
const recoverRepeats = 5

// passResult is everything one pass measured.
type passResult struct {
	setupS   []float64
	wall     time.Duration
	sessions int             // sessions (operations on overload_adapt) the rounds ran
	digests  []uint64        // outcome digest after each round
	elapsed  []time.Duration // wall time from the start to the end of each round
	m        *meter

	allocKB, mallocs   float64 // heap KB and objects allocated per session, first allocSessions
	heapLive, heapPeak uint64
	gcCPU              float64 // GC CPU seconds ÷ total CPU seconds over the timed part
	gcPauseP99us       float64
	goroutines         int
	recoverMS          float64
	counts             map[string]float64 // per-layer counts over the timed part
	checkErr           error              // output checks; nil when all passed
	floorUS            float64            // loopback floor, wire workloads on traced runs
	probe              probeInputs        // traced runs: what the layer probes replay
}

// runPass sets the workload up, runs timed rounds until the limit, then
// drains it and checks its outputs.
func runPass(w *workload, seed int64, tr *tracer, lim limits, workdir string) (*passResult, error) {
	res := &passResult{}
	var e *env
	// A count-bound pass repeats another pass or is a test: it sets up once.
	for len(res.setupS) == 0 || lim.sessions == 0 && moreSetups(res.setupS) {
		if e != nil {
			e.close()
		}
		t := time.Now()
		var err error
		if e, err = setUp(w, seed, tr, workdir); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		res.setupS = append(res.setupS, time.Since(t).Seconds())
	}
	defer e.close()
	res.m = e.m
	tr.reset()

	runtime.GC()
	base := e.counts()
	gc0 := gcCPUSeconds()
	var ms0, ms runtime.MemStats
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	deadline := start.Add(time.Duration(lim.seconds * float64(time.Second)))
	for done := false; !done; {
		n := roundSessions
		if lim.sessions > 0 {
			n = min(n, lim.sessions-res.sessions)
		}
		e.round(n)
		res.sessions += n
		res.digests = append(res.digests, e.digest())
		res.elapsed = append(res.elapsed, time.Since(start))
		if res.sessions%pruneEvery == 0 {
			e.prune()
			runtime.ReadMemStats(&ms)
			res.heapPeak = max(res.heapPeak, ms.HeapAlloc)
		}
		if res.sessions == allocSessions {
			res.noteAlloc(&ms0, e.m.active)
		}
		if lim.sessions > 0 {
			done = res.sessions >= lim.sessions
		} else {
			done = !time.Now().Before(deadline)
		}
	}
	res.wall = time.Since(start)
	tr.stop()
	if res.sessions < allocSessions {
		res.noteAlloc(&ms0, e.m.active)
	}
	runtime.ReadMemStats(&ms)
	res.heapPeak = max(res.heapPeak, ms.HeapAlloc)
	res.gcPauseP99us = gcPauseP99(&ms0, &ms)
	gc1 := gcCPUSeconds()
	if total := gc1[1] - gc0[1]; total > 0 {
		res.gcCPU = (gc1[0] - gc0[0]) / total
	}
	res.counts = e.counts()
	for k, v := range base {
		res.counts[k] -= v
	}
	res.counts["wal.dir_kb_end"] = dirKB(e.walDir)
	// The live heap is read at a quiesce point: a run ends anywhere in the
	// prune cycle, and up to pruneEvery terminal sessions would ride along.
	e.prune()
	runtime.GC()
	runtime.ReadMemStats(&ms)
	res.heapLive = ms.HeapAlloc - e.m.sampleBytes()

	if tr != nil {
		res.probe = e.probeInputs()
	}
	if tr != nil && e.endpoint != "" {
		var err error
		if res.floorUS, err = loopbackFloor(e.hcs[0], e.endpoint, 2048); err != nil {
			return nil, err
		}
	}
	if w.durable {
		var ms []float64
		for i := 0; i < recoverRepeats; i++ {
			took, err := e.crashAndRecover()
			if err != nil {
				res.checkErr = err
				break
			}
			ms = append(ms, float64(took)/1e6)
		}
		res.recoverMS = median(ms)
	}
	if err := e.finish(); err != nil && res.checkErr == nil {
		res.checkErr = err
	}
	res.goroutines = runtime.NumGoroutine()
	return res, nil
}

// moreSetups reports whether a timed pass that has set up this often should
// set up again.
func moreSetups(took []float64) bool {
	var total float64
	for _, s := range took {
		total += s
	}
	return len(took) < setupRepeats || len(took) < maxSetupRepeats && total < setupFloor.Seconds()
}

// noteAlloc records allocation per session since the timed part began.
func (r *passResult) noteAlloc(from *runtime.MemStats, active int) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	r.allocKB = ratio(float64(ms.TotalAlloc-from.TotalAlloc)/1024, float64(active))
	r.mallocs = ratio(float64(ms.Mallocs-from.Mallocs), float64(active))
}

// counts reads the per-layer counters through the stacks' public
// accessors, summed over brokers.
func (e *env) counts() map[string]float64 {
	c := map[string]float64{
		"forwarded":      float64(e.forwarded),
		"migrations":     float64(e.migrations),
		"migrate_failed": float64(e.migrateFailed),
		"preemptions":    float64(e.preemptions),
		"wire_calls":     float64(e.wire.calls.Load()),
		"req_bytes":      float64(e.wire.reqBytes.Load()),
		"resp_bytes":     float64(e.wire.respBytes.Load()),
	}
	for _, st := range e.stacks {
		a, s, n := st.broker.WALStats()
		c["wal.appends"] += float64(a)
		c["wal.syncs"] += float64(s)
		c["wal.snapshots"] += float64(n)
		for _, ev := range []string{"degrade", "restore", "compensate", "promote", "violation"} {
			c[ev] += st.lifecycle(ev)
		}
		c["optimizer.runs"] += st.counter("gqosm_broker_optimizer_runs_total")
		c["optimizer.applied"] += st.counter("gqosm_broker_optimizer_applied_total")
		c["gara.created"] += st.counter("gqosm_gara_reservations_total", "op", "create")
		c["gram.submitted"] += st.counter("gqosm_gram_jobs_total", "state", "submitted")
		c["discovery.hits"] += st.counter("gqosm_discovery_cache_hits_total")
		c["discovery.misses"] += st.counter("gqosm_discovery_cache_misses_total")
		c["intake.flushes"] += st.counter("gqosm_intake_flushes_total")
		c["intake.submitted"] += st.counter("gqosm_intake_submitted_total")
		if st.seam != nil {
			c["rm.calls"] += float64(st.seam.rmCalls)
			c["rm.failed"] += float64(st.seam.rmFailed)
		}
	}
	return c
}

// gcCPUSeconds returns the process's GC and total CPU seconds so far.
func gcCPUSeconds() [2]float64 {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	return [2]float64{s[0].Value.Float64(), s[1].Value.Float64()}
}

// gcPauseP99 is the p99 stop-the-world pause of the collections between
// two MemStats readings (the runtime keeps the last 256).
func gcPauseP99(from, to *runtime.MemStats) float64 {
	var us []float64
	for n := to.NumGC; n > from.NumGC && to.NumGC-n < 256; n-- {
		us = append(us, float64(to.PauseNs[(n+255)%256])/1e3)
	}
	sort.Float64s(us)
	return quantileSorted(us, 0.99)
}

func dirKB(dir string) float64 {
	if dir == "" {
		return 0
	}
	var bytes int64
	entries, _ := os.ReadDir(dir) // a vanished directory reads as empty
	for _, ent := range entries {
		if info, err := ent.Info(); err == nil {
			bytes += info.Size()
		}
	}
	return float64(bytes) / 1024
}

// traceCap bounds the traced pass: enough sessions for steady medians,
// few enough that the trace file stays a few tens of megabytes.
const traceCap = 64 * roundSessions

// tracedResult is a traced pass beside the untraced pass it repeats.
type tracedResult struct {
	base, traced *passResult
	// overhead is traced ÷ untraced wall over the same rounds, minus 1.
	overhead float64
	rows     map[string]*layerRow
	spans    int
	path     string
}

// runTraced runs the workload untraced, repeats the same sessions with
// spans recorded, checks that both produced the same outcomes, and builds
// the per-layer table from the trace file it wrote.
func runTraced(w *workload, seed int64, lim limits, workdir, traceOut string) (*tracedResult, error) {
	lim.seconds /= 2
	base, err := runPass(w, seed, nil, lim, workdir)
	if err != nil {
		return nil, err
	}
	n := min(base.sessions, traceCap)
	tr := newTracer()
	traced, err := runPass(w, seed, tr, limits{sessions: n}, workdir)
	if err != nil {
		return nil, err
	}
	if got, want := traced.digests[len(traced.digests)-1], base.digests[len(traced.digests)-1]; got != want && traced.checkErr == nil {
		traced.checkErr = fmt.Errorf("outcome digest after %d sessions: traced %016x, untraced %016x", n, got, want)
	}
	if traceOut == "" {
		traceOut = filepath.Join(workdir, fmt.Sprintf("trace-%s-%d.json", w.name, seed))
	}
	if err := tr.writeFile(traceOut); err != nil {
		return nil, err
	}
	spans, err := readTrace(traceOut)
	if err != nil {
		return nil, err
	}
	rounds := len(traced.elapsed)
	overhead := traced.elapsed[rounds-1].Seconds()/base.elapsed[rounds-1].Seconds() - 1
	return &tracedResult{base: base, traced: traced, overhead: overhead, rows: layerTable(spans), spans: len(spans), path: traceOut}, nil
}
