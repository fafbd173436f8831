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
	// A WAL directory a previous run journaled into.
	dirty := t.TempDir()
	if _, err := runCapture(t, "-chaos", "-restarts", "1", "-ops", "300", "-wal-dir", dirty, "-json"); err != nil {
		t.Fatal(err)
	}
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
		// stack.New would recover the directory; a replay on top of
		// recovered sessions is not deterministic, so the sim refuses it.
		"dirty-wal-dir": {"-chaos", "-restarts", "1", "-ops", "300", "-wal-dir", dirty},
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
	var r sim.Report
	if err := json.Unmarshal([]byte(out), &r); err != nil {
		t.Fatalf("not JSON: %v\n%s", err, out)
	}
	if r.Config["fault_rate"] != 0.0 || r.Outcome.Faults != nil || r.Oracle.Violations != 0 {
		t.Errorf("fault_rate=%v faults=%+v violations=%d, want rate 0, no faults block, no violations",
			r.Config["fault_rate"], r.Outcome.Faults, r.Oracle.Violations)
	}
	if r.Outcome.Admitted == 0 || r.Oracle.Checks == 0 {
		t.Errorf("degenerate fault-free run: %s", out)
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
		"serial:", "parallel:", "ops_per_sec:", "capacity_restored: true",
		"admit_p50_ms:", "metrics snapshot:",
		"gqosm_broker_admission_seconds_count",
		`gqosm_broker_lifecycle_total{event="accept"}`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("parallel output missing %q:\n%s", want, out)
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

// The soak and cluster rows of the report contract (contract_test.go),
// under the names these two tests have always had.
func TestScenarioSoakJSON(t *testing.T) {
	checkContract(t, contractRow{mode: "scenario",
		args:   []string{"-scenario", "lease-churn", "-soak", "-seed", "1", "-ops", "8000"},
		blocks: []string{":scenario"},
		pins: func(t *testing.T, rep *sim.Report) {
			soak, _ := rep.Latency["soak"].(map[string]any)
			if windows, _ := soak["windows"].([]any); len(windows) == 0 {
				t.Errorf("soak samples missing from the latency block: %v", rep.Latency)
			}
			if !rep.Oracle.Gates["stable"] || rep.Config["soak"] != true {
				t.Errorf("unstable or not marked a soak: config %v, oracle %+v", rep.Config, rep.Oracle)
			}
		}})
}

func TestScenarioArgumentErrors(t *testing.T) {
	if _, err := runCapture(t, "-scenario", "nosuch"); err == nil {
		t.Fatal("unknown scenario accepted")
	}
	if _, err := runCapture(t, "-soak"); err == nil {
		t.Fatal("-soak without -scenario accepted")
	}
}

// TestClusterFlagJSON runs a small -cluster workload end to end: the
// N-broker run, its 1-broker baseline, and the two gates — N=1 parity
// and the hand-off drill's single owner.
func TestClusterFlagJSON(t *testing.T) {
	checkContract(t, contractRow{mode: "cluster",
		args:   []string{"-cluster", "2", "-clients", "600", "-seed", "5"},
		blocks: []string{"runs.scale.:front", "runs.scale.:migration", "runs.handoff.:handoff"},
		pins: func(t *testing.T, rep *sim.Report) {
			scale := rep.Runs["scale"]
			if scale.Config["brokers"] != 2.0 || scale.Config["clients"] != 600.0 || rep.Runs["baseline"].Config["brokers"] != 1.0 {
				t.Errorf("scale config = %v, baseline config = %v", scale.Config, rep.Runs["baseline"].Config)
			}
			if rep.Runs["baseline"].Outcome.Migration != nil {
				t.Error("the 1-broker baseline reports a migration block although none ran")
			}
			if !rep.Oracle.Gates["parity"] {
				t.Error("parity gate failed")
			}
			if !rep.Runs["handoff"].Oracle.Gates["single_owner"] {
				t.Error("handoff drill did not end with a single owner")
			}
		}})
}

func TestClusterFlagArgumentErrors(t *testing.T) {
	// There is one placement and no flag to pick it.
	_, err := runCapture(t, "-cluster", "2", "-placement", "hash")
	if err == nil || !strings.Contains(err.Error(), "flag provided but not defined") {
		t.Fatalf("err = %v, want -placement refused as an unknown flag", err)
	}
}
