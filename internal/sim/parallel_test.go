package sim_test

import (
	"encoding/json"
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
	if res.Failed() {
		t.Fatalf("oracle: %+v", res.Oracle)
	}
	if res.Oracle.Checks != 5 { // 4 phase quiesces + post-drain
		t.Fatalf("checks = %d, want 5", res.Oracle.Checks)
	}
	if res.Outcome.Requested == 0 || res.Outcome.Admitted == 0 {
		t.Fatalf("degenerate run: %+v", res.Outcome.Tally)
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
	if a.Outcome.Requested != b.Outcome.Requested {
		t.Fatalf("request schedule not deterministic: %d vs %d", a.Outcome.Requested, b.Outcome.Requested)
	}
}

// TestRunParallelReportSchema pins the JSON schema consumers of
// BENCH_parallel.json rely on: the versioned document, and no wall-clock
// number anywhere in it, not even for the one mode whose interleaving is
// not deterministic.
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
	var doc struct{ Schema string }
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Schema != sim.Schema {
		t.Errorf("schema = %q, want %q", doc.Schema, sim.Schema)
	}
	for _, old := range []string{`"latency"`, `"elapsed_ms"`, `"ops_per_sec"`, `"Elapsed"`, `"OpsPerSec"`} {
		if strings.Contains(string(raw), old) {
			t.Errorf("report carries the wall-clock key %s: %s", old, raw)
		}
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
	if res.Outcome.Admitted == 0 {
		t.Fatalf("degenerate run: %+v", res.Outcome.Tally)
	}
}
