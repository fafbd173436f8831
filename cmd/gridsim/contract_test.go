package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"

	"gqosm/internal/sim"
)

// The report contract: whatever the mode, gridsim -json emits one
// document shape (DESIGN.md §17), and all of it is a function of the
// command line.

// contractRow is one gridsim invocation held to the contract.
type contractRow struct {
	name string
	mode string // the mode-table row the arguments select
	args []string
	// blocks lists outcome sub-blocks that must be present, as
	// "<run path>:<block>" (the run path is "" for the document itself,
	// "runs.scale" for a child).
	blocks []string
	// pins are the row's own assertions on the parsed document.
	pins func(t *testing.T, rep *sim.Report)
}

// tallyKeys are the counters every engine run measures; each must be
// emitted even when zero.
var tallyKeys = []string{"ops", "requested", "admitted", "rejected", "terminated", "admit_rate",
	"degradations", "restorations", "promotions", "revenue", "intake_batch_mean"}

// eachRun visits doc and, recursively, the children under its runs key.
func eachRun(path string, doc map[string]any, visit func(path string, run map[string]any)) {
	visit(path, doc)
	runs, _ := doc["runs"].(map[string]any)
	for name, child := range runs {
		eachRun(path+"runs."+name+".", child.(map[string]any), visit)
	}
}

// emit runs gridsim -json and returns the document three ways: parsed
// into the report type, as a generic tree, and as printed.
func emit(t *testing.T, row contractRow) (rep *sim.Report, doc map[string]any, raw []byte) {
	t.Helper()
	out, runErr := runCapture(t, append(row.args, "-json")...)
	if err := json.Unmarshal([]byte(out), &rep); err != nil {
		t.Fatalf("%v: not a report: %v (run error: %v)\n%s", row.args, err, runErr, out)
	}
	if err := json.Unmarshal([]byte(out), &doc); err != nil {
		t.Fatal(err)
	}
	// The process gate and the document's verdict are the same thing.
	if rep.Failed() != (runErr != nil) {
		t.Errorf("%v: run error %v, but the emitted document has Failed() = %v", row.args, runErr, rep.Failed())
	}
	if runErr != nil {
		t.Errorf("%v: %v\noracle: %+v", row.args, runErr, rep.Oracle)
	}
	return rep, doc, []byte(out)
}

func checkContract(t *testing.T, row contractRow) {
	rep, doc, first := emit(t, row)
	again, _, second := emit(t, row)

	if rep.Mode != row.mode {
		t.Errorf("mode = %q, want the mode-table row %q", rep.Mode, row.mode)
	}
	if !bytes.Equal(first, second) {
		t.Errorf("two runs differ:\n%s\nvs\n%s", first, second)
	}
	if rep.Digest != again.Digest || rep.Digest == "" {
		t.Errorf("digests %q and %q, want equal and set", rep.Digest, again.Digest)
	}

	present := map[string]bool{}
	eachRun("", doc, func(path string, run map[string]any) {
		if run["schema"] != sim.Schema {
			t.Errorf("%sschema = %v, want %q", path, run["schema"], sim.Schema)
		}
		for _, key := range []string{"mode", "config", "outcome", "oracle", "digest"} {
			if _, ok := run[key]; !ok {
				t.Errorf("%s%s missing", path, key)
			}
		}
		outcome := run["outcome"].(map[string]any)
		for block := range outcome {
			present[fmt.Sprintf("%s:%s", path, block)] = true
		}
		// A run with a tally carries all of it, zeros included; a composite
		// carries none of it.
		if _, measured := outcome["requested"]; measured {
			for _, key := range tallyKeys {
				if _, ok := outcome[key]; !ok {
					t.Errorf("%soutcome.%s missing: a measured counter is emitted even when zero", path, key)
				}
			}
		}
	})
	for _, block := range row.blocks {
		if !present[block] {
			t.Errorf("outcome sub-block %q missing", block)
		}
	}

	if row.pins != nil {
		row.pins(t, rep)
	}
}

func TestReportContract(t *testing.T) {
	rows := []contractRow{
		{name: "cluster-of-one", mode: "federation", args: []string{"-federation", "1", "-clients", "300", "-seed", "5"},
			blocks: []string{"runs.scale.:federation", "runs.baseline.:federation"},
			pins: func(t *testing.T, rep *sim.Report) {
				if f := rep.Runs["scale"].Outcome.Federation; f.Forwarded != 0 || len(f.PerBroker) != 1 {
					t.Errorf("a federation of one broker has no neighbor to forward to, yet reports %+v", f)
				}
			}},
		{name: "scenario", mode: "scenario", args: []string{"-scenario", "diurnal", "-seed", "1", "-ops", "2000"},
			blocks: []string{":scenario"},
			pins: func(t *testing.T, rep *sim.Report) {
				if rep.Config["scenario"] != "diurnal" || rep.Config["seed"] != 1.0 || rep.Outcome.Ops == 0 ||
					rep.Oracle.Checks == 0 || rep.Oracle.Violations != 0 || !rep.Oracle.Gates["verified"] {
					t.Errorf("degenerate report: config %v, outcome %+v, oracle %+v", rep.Config, rep.Outcome.Tally, rep.Oracle)
				}
			}},
		{name: "scenario-all", mode: "scenario", args: []string{"-scenario", "all", "-seed", "1", "-ops", "2000"},
			pins: func(t *testing.T, rep *sim.Report) {
				for _, sc := range sim.Scenarios() {
					r := rep.Runs[sc.Name]
					if r == nil {
						t.Fatalf("missing %q under runs", sc.Name)
					}
					if r.Outcome.Requested == 0 || r.Oracle.Checks == 0 || r.Outcome.Scenario == nil {
						t.Errorf("%s degenerate: %+v", sc.Name, r.Outcome.Tally)
					}
				}
				if rep.Outcome.Tally != nil || rep.Oracle.Checks == 0 {
					t.Errorf("a composite sums its children's checks and has no tally: %+v / %+v", rep.Oracle, rep.Outcome.Tally)
				}
			}},
		{name: "chaos", mode: "chaos", args: []string{"-chaos", "-restarts", "2", "-seed", "7", "-ops", "1000"},
			blocks: []string{":faults", ":recovery"},
			pins: func(t *testing.T, rep *sim.Report) {
				if rec := rep.Outcome.Recovery; rec.DigestMatches != 2 || !rep.Oracle.Gates["digests_match"] {
					t.Errorf("recovery %+v, gates %v", rec, rep.Oracle.Gates)
				}
			}},
		// One client: with more the goroutine interleaving, and so the
		// counters, differ run to run by design.
		{name: "parallel", mode: "parallel", args: []string{"-parallel", "-clients", "1", "-ops", "200", "-phases", "2"},
			pins: func(t *testing.T, rep *sim.Report) {
				for _, name := range []string{"serial", "parallel"} {
					r := rep.Runs[name]
					if r == nil {
						t.Fatalf("missing %q under runs", name)
					}
					if r.Outcome.Ops == 0 || r.Oracle.Checks != 3 || r.Config["clients"] != 1.0 {
						t.Errorf("%s degenerate: config %v, outcome %+v, oracle %+v", name, r.Config, r.Outcome.Tally, r.Oracle)
					}
				}
			}},
	}
	covered := map[string]bool{}
	for _, row := range rows {
		covered[row.mode] = true
		t.Run(row.name, func(t *testing.T) { checkContract(t, row) })
	}
	// Every mode that hands back a report has a row (the experiment mode
	// prints its own output; internal/sim pins the C1–C3 reports it prints).
	for _, m := range modes {
		if !covered[m.name] && m.name != "experiment" {
			t.Errorf("mode %q has no contract row", m.name)
		}
	}
}
