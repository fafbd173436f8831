package sim_test

import (
	"encoding/json"
	"math"
	"strings"
	"testing"

	"gqosm/internal/obs"
	"gqosm/internal/sim"
)

// TestRunParallelSmoke runs a small concurrent stress and expects a clean
// bill of health at every quiesce point and an exact capacity drain.
func TestRunParallelSmoke(t *testing.T) {
	res, err := sim.RunParallel(sim.StressConfig{
		Clients: 4, Ops: 400, Phases: 4, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Checks != 5 { // 4 phase quiesces + post-drain
		t.Fatalf("checks = %d, want 5", res.Checks)
	}
	if res.Requested == 0 || res.Admitted == 0 {
		t.Fatalf("degenerate run: %+v", res)
	}
}

// TestRunParallelDeterministicSchedules confirms two runs with the same
// seed issue the same number of requests (the per-client schedules are
// deterministic even though the interleaving is not).
func TestRunParallelDeterministicSchedules(t *testing.T) {
	cfg := sim.StressConfig{Clients: 2, Ops: 200, Phases: 2, Seed: 42}
	a, err := sim.RunParallel(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := sim.RunParallel(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Requested != b.Requested {
		t.Fatalf("request schedule not deterministic: %d vs %d", a.Requested, b.Requested)
	}
}

// TestRunParallelReportSchema pins the JSON schema consumers of
// BENCH_parallel.json rely on: a bare-nanosecond Elapsed alone was easy
// to misread as milliseconds, so the report must also carry elapsed_ms
// and the admission-latency percentiles.
func TestRunParallelReportSchema(t *testing.T) {
	res, err := sim.RunParallel(sim.StressConfig{
		Clients: 4, Ops: 400, Phases: 4, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}

	raw, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"elapsed_ms", "admit_p50_ms", "admit_p95_ms", "admit_p99_ms"} {
		v, ok := m[key].(float64)
		if !ok {
			t.Fatalf("report lacks numeric %q: %s", key, raw)
		}
		if v <= 0 || math.IsNaN(v) || math.IsInf(v, 0) {
			t.Errorf("%s = %v, want a positive finite value", key, v)
		}
	}
	elapsedNS, _ := m["Elapsed"].(float64)
	if got := m["elapsed_ms"].(float64); math.Abs(got-elapsedNS/1e6) > 1e-6 {
		t.Errorf("elapsed_ms %v does not match Elapsed %v ns", got, elapsedNS)
	}
	if res.AdmitP50MS > res.AdmitP95MS || res.AdmitP95MS > res.AdmitP99MS {
		t.Errorf("percentiles not monotone: p50=%v p95=%v p99=%v",
			res.AdmitP50MS, res.AdmitP95MS, res.AdmitP99MS)
	}
}

// TestRunParallelSharedRegistry verifies a caller-supplied registry
// receives the run's broker metrics and serves them in exposition format.
func TestRunParallelSharedRegistry(t *testing.T) {
	reg := obs.NewRegistry()
	res, err := sim.RunParallel(sim.StressConfig{
		Clients: 2, Ops: 200, Phases: 2, Seed: 3, Obs: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	if !strings.Contains(text, "gqosm_broker_admission_seconds_count") {
		t.Errorf("exposition lacks admission histogram:\n%s", text)
	}
	if !strings.Contains(text, `gqosm_broker_lifecycle_total{event="accept"}`) {
		t.Errorf("exposition lacks accept counter:\n%s", text)
	}
	if res.Admitted == 0 {
		t.Fatalf("degenerate run: %+v", res)
	}
}
