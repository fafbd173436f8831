package main

import (
	"encoding/json"
	"io"
	"os"
	"strings"
	"testing"

	"gqosm/internal/core"
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
		"cluster-intake":      {"-federation", "3", "-intake"},
		"scenario-faultrate":  {"-scenario", "diurnal", "-faultrate", "0.4"},
		"two-modes":           {"-parallel", "-chaos"},
		"experiment-json":     {"-experiment", "T1", "-json"},
		"transport-no-mode":   {"-transport", "http"},
		"transport-chaos":     {"-chaos", "-transport", "http"},
		"restarts-no-chaos":   {"-restarts", "3"},
		"negative-faultrate":  {"-chaos", "-faultrate", "-0.1"},
		"removed-cache-knob":  {"-parallel", "-cache", "off"},
		"bad-transport-value": {"-parallel", "-transport", "carrier-pigeon"},
		// stack.New would recover the directory; a replay on top of
		// recovered sessions is not deterministic, so the sim refuses it.
		"dirty-wal-dir": {"-chaos", "-restarts", "1", "-ops", "300", "-wal-dir", dirty},
	} {
		t.Run(name, func(t *testing.T) {
			_, err := runCapture(t, args...)
			if err == nil {
				t.Fatalf("args %v: expected error", args)
			}
			// A removed flag is refused as undefined, not as a stray.
			if name == "cluster-intake" && !strings.Contains(err.Error(), "flag provided but not defined: -intake") {
				t.Errorf("args %v: err = %v, want -intake undefined", args, err)
			}
		})
	}
}

// A sizing flag outside its range is refused by name, never defaulted,
// clamped or dropped: each row once ran a different run than it asked for.
func TestSizingFlagsOutOfRange(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-federation", "-2", "-clients", "300"}, "bad -federation -2"},
		{[]string{"-federation", "3", "-clients", "-3"}, "bad -clients -3"},
		{[]string{"-chaos", "-ops", "-5"}, "bad -ops -5"},
		{[]string{"-chaos", "-clients", "-3"}, "bad -clients -3"},
		{[]string{"-chaos", "-phases", "-1"}, "bad -phases -1"},
		{[]string{"-chaos", "-ops", "0"}, "bad -ops 0"},
		{[]string{"-chaos", "-restarts", "-2"}, "bad -restarts -2"},
		{[]string{"-chaos", "-restarts", "0"}, "bad -restarts 0"},
		{[]string{"-parallel", "-phases", "0"}, "bad -phases 0"},
		{[]string{"-scenario", "diurnal", "-ops", "-7"}, "bad -ops -7"},
		{[]string{"-chaos", "-faultrate", "7"}, "bad -faultrate 7"},
		{[]string{"-scenario", "list", "-json"}, "-scenario list"},
	} {
		out, err := runCapture(t, tc.args...)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%v: error %v, want one containing %q", tc.args, err, tc.want)
		}
		if out != "" {
			t.Errorf("%v: printed %q before refusing", tc.args, out)
		}
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

// Every chaos run reads -phases, -restarts and -wal-dir together: it
// journals to the directory, quiesces at its phase barriers and is killed
// -restarts times, even more times than the ops ask steps for.
func TestChaosPhasesRestartsWALDir(t *testing.T) {
	for _, tc := range []struct {
		args          []string
		steps, checks int
	}{
		// 5 phase barriers, a pre-kill and a post-recovery pass per kill,
		// and the post-drain pass.
		{[]string{"-phases", "5", "-restarts", "3", "-ops", "400"}, 50, 5 + 2*3 + 1},
		// One step's worth of ops and 20 kills: the step count rises to 21
		// so every kill lands on a step of its own.
		{[]string{"-ops", "8", "-clients", "8", "-phases", "1", "-restarts", "20"}, 21, 21 + 2*20 + 1},
	} {
		dir := t.TempDir()
		args := append([]string{"-chaos", "-wal-dir", dir, "-json"}, tc.args...)
		out, err := runCapture(t, args...)
		if err != nil {
			t.Fatalf("%v: %v\n%s", args, err, out)
		}
		var r sim.Report
		if err := json.Unmarshal([]byte(out), &r); err != nil {
			t.Fatalf("not JSON: %v\n%s", err, out)
		}
		rec := r.Outcome.Recovery
		if rec == nil || rec.DigestMatches != rec.Restarts || rec.ReplayedRecords == 0 {
			t.Errorf("%v: recovery %+v, want every kill digest-matched and records replayed", args, rec)
		}
		if r.Outcome.Ops != int64(tc.steps*8) || r.Oracle.Checks != tc.checks {
			t.Errorf("%v: ops %d, checks %d, want %d and %d", args, r.Outcome.Ops, r.Oracle.Checks, tc.steps*8, tc.checks)
		}
		if !core.HasWALState(dir) {
			t.Errorf("%v: nothing journaled to -wal-dir", args)
		}
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

// TestExperimentClaimPrintsReport: a claim experiment prints its report
// as the plain-text document, gate and per-cell children included.
func TestExperimentClaimPrintsReport(t *testing.T) {
	out, err := runCapture(t, "-experiment", "C3")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"=== C3", `schema: "gqosm.report/v1"`, "c3_floor_honored: true", "c3-g-load-15:", "admitted: 200"} {
		if !strings.Contains(out, want) {
			t.Fatalf("C3 output missing %q:\n%s", want, out)
		}
	}
}

func TestParallelModeTable(t *testing.T) {
	out, err := runCapture(t, "-parallel", "-clients", "2", "-ops", "200", "-phases", "2")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"serial:", "parallel:", "capacity_restored: true",
		"wall clock: serial ", " ops/s, parallel ", "metrics snapshot:",
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

// The soak and federation rows of the report contract (contract_test.go),
// under the names these two tests have always had.
func TestScenarioSoakJSON(t *testing.T) {
	checkContract(t, contractRow{mode: "scenario",
		args:   []string{"-scenario", "lease-churn", "-soak", "-seed", "1", "-ops", "8000"},
		blocks: []string{":scenario"},
		pins: func(t *testing.T, rep *sim.Report) {
			if ws := rep.Outcome.Soak; ws == nil || len(ws.Sessions) == 0 {
				t.Errorf("soak working set missing from the outcome: %+v", ws)
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

// TestClusterFlagJSON runs a small -federation workload end to end: the
// N-broker run, its 1-broker baseline, and the N=1 parity gate.
func TestClusterFlagJSON(t *testing.T) {
	checkContract(t, contractRow{mode: "federation",
		args:   []string{"-federation", "2", "-clients", "600", "-seed", "5"},
		blocks: []string{"runs.scale.:federation", "runs.baseline.:federation"},
		pins: func(t *testing.T, rep *sim.Report) {
			scale := rep.Runs["scale"]
			if scale.Config["brokers"] != 2.0 || scale.Config["clients"] != 600.0 || rep.Runs["baseline"].Config["brokers"] != 1.0 {
				t.Errorf("scale config = %v, baseline config = %v", scale.Config, rep.Runs["baseline"].Config)
			}
			if len(rep.Runs) != 2 {
				t.Errorf("runs = %d, want scale and baseline only", len(rep.Runs))
			}
			if !rep.Oracle.Gates["parity"] {
				t.Error("parity gate failed")
			}
		}})
}

func TestClusterFlagArgumentErrors(t *testing.T) {
	// The federation asks its neighbors in registration order: there is no
	// placement to pick, and the front tier's -cluster flag is gone.
	for _, args := range [][]string{{"-federation", "2", "-placement", "hash"}, {"-cluster", "2"}} {
		_, err := runCapture(t, args...)
		if err == nil || !strings.Contains(err.Error(), "flag provided but not defined") {
			t.Fatalf("args %v: err = %v, want an unknown flag refused", args, err)
		}
	}
}
