package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"

	"gqosm/internal/sim"
)

// The report contract: whatever the mode, gridsim -json emits one
// document shape (DESIGN.md §17), and everything in it outside a latency
// key is a function of the command line.

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
	"degradations", "restorations", "promotions", "revenue", "cache_hit_rate", "intake_batch_mean"}

// eachRun visits doc and, recursively, the children under its runs key.
func eachRun(path string, doc map[string]any, visit func(path string, run map[string]any)) {
	visit(path, doc)
	runs, _ := doc["runs"].(map[string]any)
	for name, child := range runs {
		eachRun(path+"runs."+name+".", child.(map[string]any), visit)
	}
}

// emit runs gridsim -json and returns the document three ways: parsed
// into the report type, as a generic tree, and re-marshalled with every
// latency key deleted (what CI's jq 'del(.. | .latency?)' leaves).
func emit(t *testing.T, row contractRow) (rep *sim.Report, doc map[string]any, stripped []byte) {
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
	eachRun("", doc, func(_ string, run map[string]any) { delete(run, "latency") })
	stripped, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return rep, doc, stripped
}

func checkContract(t *testing.T, row contractRow) {
	rep, doc, first := emit(t, row)
	again, _, second := emit(t, row)

	if rep.Mode != row.mode {
		t.Errorf("mode = %q, want the mode-table row %q", rep.Mode, row.mode)
	}
	if !bytes.Equal(first, second) {
		t.Errorf("two runs differ outside their latency keys:\n%s\nvs\n%s", first, second)
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
		{name: "cluster-of-one", mode: "cluster", args: []string{"-cluster", "1", "-clients", "300", "-seed", "5"},
			blocks: []string{"runs.scale.:front", "runs.baseline.:front"},
			pins: func(t *testing.T, rep *sim.Report) {
				if rep.Runs["handoff"] != nil || rep.Runs["scale"].Outcome.Migration != nil {
					t.Error("one broker cannot migrate or hand off, yet the document reports it did")
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
		{name: "scenario-shadow", mode: "scenario",
			args:   []string{"-scenario", "lease-churn", "-shadow", "revenue-greedy", "-seed", "1", "-ops", "600"},
			blocks: []string{"runs.lease-churn.:shadow", "runs.lease-churn.runs.candidate.:scenario"},
			pins: func(t *testing.T, rep *sim.Report) {
				if sr := rep.Runs["lease-churn"]; !sr.Oracle.Gates["shadow_clean"] || sr.Outcome.Shadow.Evaluations == 0 {
					t.Errorf("shadow evaluation degenerate: %+v / %+v", sr.Oracle, sr.Outcome.Shadow)
				}
			}},
		{name: "restart-chaos", mode: "restart-chaos", args: []string{"-chaos", "-restarts", "2", "-seed", "7", "-ops", "800"},
			blocks: []string{":faults", ":recovery"},
			pins: func(t *testing.T, rep *sim.Report) {
				if rec := rep.Outcome.Recovery; rec.DigestMatches != 2 || !rep.Oracle.Gates["digests_match"] || rep.Latency["recovery_p95_ms"] == nil {
					t.Errorf("recovery %+v, gates %v, latency %v", rec, rep.Oracle.Gates, rep.Latency)
				}
			}},
		{name: "chaos", mode: "chaos", args: []string{"-chaos", "-seed", "7", "-ops", "1000", "-shards", "2"},
			blocks: []string{":faults", ":shard_sessions"}},
		// One client: with more the goroutine interleaving, and so the
		// counters, differ run to run by design. -shards reaches only the
		// parallel run; the serial baseline stays monolithic.
		{name: "parallel", mode: "parallel", args: []string{"-parallel", "-clients", "1", "-shards", "2", "-ops", "200", "-phases", "2"},
			blocks: []string{"runs.parallel.:shard_sessions"},
			pins: func(t *testing.T, rep *sim.Report) {
				for _, name := range []string{"serial", "parallel"} {
					r := rep.Runs[name]
					if r == nil {
						t.Fatalf("missing %q under runs", name)
					}
					if r.Outcome.Ops == 0 || r.Oracle.Checks != 3 || r.Config["clients"] != 1.0 {
						t.Errorf("%s degenerate: config %v, outcome %+v, oracle %+v", name, r.Config, r.Outcome.Tally, r.Oracle)
					}
					for _, key := range []string{"elapsed_ms", "ops_per_sec", "admit_p50_ms", "admit_p95_ms", "admit_p99_ms"} {
						if v, _ := r.Latency[key].(float64); v <= 0 {
							t.Errorf("%s latency.%s = %v, want > 0", name, key, r.Latency[key])
						}
					}
				}
				if s, p := rep.Runs["serial"].Config["shards"], rep.Runs["parallel"].Config["shards"]; s != 1.0 || p != 2.0 {
					t.Errorf("shards serial/parallel = %v/%v, want 1/2", s, p)
				}
			}},
	}
	covered := map[string]bool{}
	for _, row := range rows {
		covered[row.mode] = true
		t.Run(row.name, func(t *testing.T) { checkContract(t, row) })
	}
	// Every mode that hands back a report has a row (the experiment mode
	// prints the paper's tables and has none).
	for _, m := range modes {
		if !covered[m.name] && m.name != "experiment" {
			t.Errorf("mode %q has no contract row", m.name)
		}
	}
}
