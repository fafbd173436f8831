package main

import (
	"encoding/json"
	"io"
	"os"
	"strings"
	"testing"

	"gqosm/internal/sim"
)

// runCapture runs the CLI entry point and returns its stdout.
func runCapture(t *testing.T, args ...string) (string, error) {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	orig := os.Stdout
	os.Stdout = w
	runErr := run(args)
	os.Stdout = orig
	w.Close()
	out, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	return string(out), runErr
}

func TestRunArgumentErrors(t *testing.T) {
	for name, args := range map[string][]string{
		"unknown-experiment": {"-experiment", "Z9"},
		"bad-flag":           {"-no-such-flag"},
		"bad-seed":           {"-seed", "not-a-number"},
		// Flags the selected mode does not read are rejected, not dropped.
		"cluster-intake":      {"-cluster", "3", "-intake"},
		"scenario-faultrate":  {"-scenario", "diurnal", "-faultrate", "0.4"},
		"restarts-phases":     {"-chaos", "-restarts", "3", "-phases", "5"},
		"chaos-wal-dir":       {"-chaos", "-wal-dir", "/tmp/x"},
		"two-modes":           {"-parallel", "-chaos"},
		"experiment-json":     {"-experiment", "T1", "-json"},
		"transport-no-mode":   {"-transport", "http"},
		"transport-chaos":     {"-chaos", "-transport", "http"},
		"restarts-no-chaos":   {"-restarts", "3"},
		"shadow-no-scenario":  {"-shadow", "revenue-greedy"},
		"shadow-and-soak":     {"-scenario", "all", "-shadow", "revenue-greedy", "-soak"},
		"negative-faultrate":  {"-chaos", "-faultrate", "-0.1"},
		"removed-cache-knob":  {"-parallel", "-cache", "off"},
		"bad-transport-value": {"-parallel", "-transport", "carrier-pigeon"},
	} {
		t.Run(name, func(t *testing.T) {
			if _, err := runCapture(t, args...); err == nil {
				t.Fatalf("args %v: expected error", args)
			}
		})
	}
}

// The needs-message names the mode flag that would make the stray flag
// meaningful.
func TestStrayFlagMessageNamesTheMode(t *testing.T) {
	for flags, want := range map[string]string{
		"-transport http -chaos": "-transport needs -parallel",
		"-restarts 3":            "-restarts needs -chaos",
		"-soak":                  "-soak needs -scenario",
	} {
		_, err := runCapture(t, strings.Fields(flags)...)
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: error %v, want it to contain %q", flags, err, want)
		}
	}
}

// A fault rate of 0 means no injector — the 0-point of a fault-rate
// sweep — not "unset, use the default".
func TestChaosFaultRateZero(t *testing.T) {
	out, err := runCapture(t, "-chaos", "-faultrate", "0", "-ops", "2000", "-json")
	if err != nil {
		t.Fatal(err)
	}
	var r sim.ChaosResult
	if err := json.Unmarshal([]byte(out), &r); err != nil {
		t.Fatalf("not JSON: %v\n%s", err, out)
	}
	if r.FaultRate != 0 || r.FaultsInjected != 0 || r.InvariantViolations != 0 {
		t.Errorf("fault_rate=%v faults_injected=%d invariant_violations=%d, want all 0",
			r.FaultRate, r.FaultsInjected, r.InvariantViolations)
	}
	if r.Admitted == 0 || r.Checks == 0 {
		t.Errorf("degenerate fault-free run: %+v", r)
	}
}

// README.md carries the mode table rendered from the same rows -h prints.
func TestReadmeModeTableInSync(t *testing.T) {
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(readme), modeTable()) {
		t.Errorf("README.md lacks the current gridsim mode table; paste this in:\n%s", modeTable())
	}
}

func TestExperimentT1PrintsSLADocument(t *testing.T) {
	out, err := runCapture(t, "-experiment", "T1")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Table 1", "192.200.168.33", "<"} {
		if !strings.Contains(out, want) {
			t.Fatalf("T1 output missing %q:\n%s", want, out)
		}
	}
}

func TestExperimentLowercaseID(t *testing.T) {
	out, err := runCapture(t, "-experiment", "t2")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "globus_gara_reservation_create") {
		t.Fatalf("t2 output:\n%s", out)
	}
}

func TestParallelModeTable(t *testing.T) {
	out, err := runCapture(t, "-parallel", "-clients", "2", "-ops", "200", "-phases", "2")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"serial", "parallel", "ops/s", "no capacity lost",
		"admission latency p50=", "metrics snapshot:",
		"gqosm_broker_admission_seconds_count",
		`gqosm_broker_lifecycle_total{event="accept"}`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("parallel output missing %q:\n%s", want, out)
		}
	}
}

func TestParallelModeJSON(t *testing.T) {
	out, err := runCapture(t, "-parallel", "-clients", "2", "-ops", "200", "-phases", "2", "-json")
	if err != nil {
		t.Fatal(err)
	}
	var report map[string]*sim.ParallelResult
	if err := json.Unmarshal([]byte(out), &report); err != nil {
		t.Fatalf("not JSON: %v\n%s", err, out)
	}
	for _, key := range []string{"serial", "parallel"} {
		r := report[key]
		if r == nil {
			t.Fatalf("missing %q in %s", key, out)
		}
		if r.Ops == 0 || r.Checks == 0 || r.OpsPerSec <= 0 {
			t.Fatalf("%s result degenerate: %+v", key, r)
		}
	}
	if report["parallel"].Clients != 2 || report["serial"].Clients != 1 {
		t.Fatalf("client counts wrong: %+v", report)
	}

	// The schema must carry both the raw nanosecond Elapsed and the
	// explicit-unit fields consumers should prefer.
	var raw map[string]map[string]float64
	if err := json.Unmarshal([]byte(out), &raw); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"serial", "parallel"} {
		for _, field := range []string{"elapsed_ms", "admit_p50_ms", "admit_p95_ms", "admit_p99_ms"} {
			if v := raw[key][field]; v <= 0 {
				t.Errorf("%s.%s = %v, want > 0", key, field, v)
			}
		}
		if ms, ns := raw[key]["elapsed_ms"], raw[key]["Elapsed"]; ms < ns/1e6*0.999 || ms > ns/1e6*1.001 {
			t.Errorf("%s: elapsed_ms %v inconsistent with Elapsed %v ns", key, ms, ns)
		}
	}
}

func TestScenarioList(t *testing.T) {
	out, err := runCapture(t, "-scenario", "list")
	if err != nil {
		t.Fatal(err)
	}
	for _, sc := range sim.Scenarios() {
		if !strings.Contains(out, sc.Name) {
			t.Fatalf("catalog missing %q:\n%s", sc.Name, out)
		}
	}
}

func TestScenarioModeJSON(t *testing.T) {
	out, err := runCapture(t, "-scenario", "diurnal", "-seed", "1", "-ops", "2000", "-json")
	if err != nil {
		t.Fatal(err)
	}
	var r sim.ScenarioReport
	if err := json.Unmarshal([]byte(out), &r); err != nil {
		t.Fatalf("not JSON: %v\n%s", err, out)
	}
	if r.Scenario != "diurnal" || r.Seed != 1 || r.Ops == 0 || r.Checks == 0 {
		t.Fatalf("degenerate report: %+v", r)
	}
	if r.InvariantViolations != 0 {
		t.Fatalf("violations: %v", r.Violations)
	}
}

func TestScenarioAllJSONKeyedByName(t *testing.T) {
	out, err := runCapture(t, "-scenario", "all", "-seed", "1", "-ops", "2000", "-json")
	if err != nil {
		t.Fatal(err)
	}
	var reports map[string]*sim.ScenarioReport
	if err := json.Unmarshal([]byte(out), &reports); err != nil {
		t.Fatalf("not JSON: %v\n%s", err, out)
	}
	for _, sc := range sim.Scenarios() {
		r := reports[sc.Name]
		if r == nil {
			t.Fatalf("missing %q in report map", sc.Name)
		}
		if r.Requested == 0 || r.Checks == 0 {
			t.Fatalf("%s degenerate: %+v", sc.Name, r)
		}
	}
}

func TestScenarioSoakJSON(t *testing.T) {
	out, err := runCapture(t, "-scenario", "lease-churn", "-soak", "-seed", "1", "-ops", "8000", "-json")
	if err != nil {
		t.Fatal(err)
	}
	var r sim.SoakReport
	if err := json.Unmarshal([]byte(out), &r); err != nil {
		t.Fatalf("not JSON: %v\n%s", err, out)
	}
	if r.Soak == nil || len(r.Soak.Windows) == 0 {
		t.Fatalf("soak block missing: %s", out)
	}
	if !r.Soak.Stable {
		t.Fatalf("unstable: %+v", r.Soak.Problems)
	}
}

func TestScenarioArgumentErrors(t *testing.T) {
	if _, err := runCapture(t, "-scenario", "nosuch"); err == nil {
		t.Fatal("unknown scenario accepted")
	}
	if _, err := runCapture(t, "-soak"); err == nil {
		t.Fatal("-soak without -scenario accepted")
	}
}

// TestClusterFlagJSON runs a small -cluster workload end to end and
// checks the BENCH_cluster.json shape plus its two gates: N=1 parity
// and the hand-off drill's single owner.
func TestClusterFlagJSON(t *testing.T) {
	out, err := runCapture(t, "-cluster", "2", "-clients", "600", "-seed", "5", "-json")
	if err != nil {
		t.Fatalf("-cluster run: %v\n%s", err, out)
	}
	var rep struct {
		Schema  string                `json:"schema"`
		Scale   *sim.ClusterSimResult `json:"scale"`
		Parity  bool                  `json:"parity"`
		Handoff struct {
			SingleOwner bool `json:"single_owner"`
		} `json:"handoff"`
	}
	if err := json.Unmarshal([]byte(out), &rep); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, out)
	}
	if rep.Schema != "bench_cluster/v1" {
		t.Errorf("schema = %q", rep.Schema)
	}
	if rep.Scale == nil || rep.Scale.Brokers != 2 || rep.Scale.Clients != 600 {
		t.Errorf("scale block = %+v", rep.Scale)
	}
	if !rep.Parity {
		t.Error("parity gate failed")
	}
	if !rep.Handoff.SingleOwner {
		t.Error("handoff drill did not end with a single owner")
	}
}

func TestClusterFlagArgumentErrors(t *testing.T) {
	if _, err := runCapture(t, "-cluster", "2", "-placement", "round-robin"); err == nil {
		t.Fatal("bad -placement accepted")
	}
}
