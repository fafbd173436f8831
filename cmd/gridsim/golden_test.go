package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"gqosm/internal/sim"
)

// The golden contract: the exact gridsim invocations CI uses, compared
// byte-for-byte against the committed BENCH_* artifacts (or, for the
// artifacts too slow to regenerate in tier-1, against values pinned from
// the same commands at small scale). A simulation-driver refactor that
// changes any deterministic report field fails here first. Re-pin by
// re-running the command into the artifact, never by editing it.

// withoutLatency re-marshals a -json document with every latency key
// deleted, the children's included — the one wall-clock carve-out.
func withoutLatency(t *testing.T, raw string) string {
	t.Helper()
	var doc map[string]any
	if err := json.Unmarshal([]byte(raw), &doc); err != nil {
		t.Fatalf("not JSON: %v\n%s", err, raw)
	}
	eachRun("", doc, func(_ string, run map[string]any) { delete(run, "latency") })
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

// golden runs gridsim and requires its document to equal the committed
// one outside the latency keys.
func golden(t *testing.T, args []string, artifact ...string) {
	t.Helper()
	got, err := runCapture(t, args...)
	if err != nil {
		t.Fatalf("%v: %v", args, err)
	}
	want, err := os.ReadFile(filepath.Join(artifact...))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := withoutLatency(t, got), withoutLatency(t, string(want)); got != want {
		t.Errorf("%v diverged from %s:\n got: %s\nwant: %s", args, filepath.Join(artifact...), got, want)
	}
}

func TestGoldenCommittedArtifacts(t *testing.T) {
	for _, tc := range []struct {
		name     string
		args     []string
		artifact []string
	}{
		{"chaos", []string{"-chaos", "-seed", "7", "-faultrate", "0.2", "-json"},
			[]string{"..", "..", "BENCH_chaos.json"}},
		{"recovery", []string{"-chaos", "-restarts", "3", "-seed", "7", "-json"},
			[]string{"..", "..", "BENCH_recovery.json"}},
		{"shadow", []string{"-scenario", "all", "-shadow", "revenue-greedy", "-seed", "7", "-ops", "3000", "-json"},
			[]string{"..", "..", "BENCH_shadow.json"}},
		{"chaos-intake", []string{"-chaos", "-intake", "-seed", "7", "-json"},
			[]string{"testdata", "chaos_intake_seed7.json"}},
	} {
		t.Run(tc.name, func(t *testing.T) { golden(t, tc.args, tc.artifact...) })
	}
}

// TestGoldenScenarios pins every deterministic field of the quick
// scenario replay (the scenario-matrix CI job's command).
func TestGoldenScenarios(t *testing.T) {
	golden(t, []string{"-scenario", "all", "-seed", "7", "-ops", "3000", "-json"}, "testdata", "scenarios_seed7_ops3000.json")
}

// TestGoldenClusterSmallScale pins the cluster-smoke CI command: the
// outcome digest, N=1 parity and the hand-off drill's single owner.
func TestGoldenClusterSmallScale(t *testing.T) {
	out, err := runCapture(t, "-cluster", "3", "-clients", "5000", "-seed", "7", "-json")
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	var rep sim.Report
	if err := json.Unmarshal([]byte(out), &rep); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, out)
	}
	const digest = "455c607a1cf3aa48"
	scale, baseline := rep.Runs["scale"].Outcome, rep.Runs["baseline"].Outcome
	if !rep.Oracle.Gates["parity"] || scale.Front.OutcomeDigest != digest || baseline.Front.OutcomeDigest != digest {
		t.Errorf("parity=%v scale=%s baseline=%s, want parity with digest %s",
			rep.Oracle.Gates["parity"], scale.Front.OutcomeDigest, baseline.Front.OutcomeDigest, digest)
	}
	if scale.Admitted != 4949 || scale.Rejected != 51 {
		t.Errorf("scale admitted/rejected = %d/%d, want 4949/51", scale.Admitted, scale.Rejected)
	}
	if !rep.Runs["handoff"].Oracle.Gates["single_owner"] {
		t.Error("handoff drill did not end with a single owner")
	}
}

// TestGoldenParallelSerialRow pins the serial baseline row of the
// bench-smoke command: one client's schedule is a pure function of the
// seed, so its lifecycle counters are too.
func TestGoldenParallelSerialRow(t *testing.T) {
	out, err := runCapture(t, "-parallel", "-seed", "7", "-json")
	if err != nil {
		t.Fatal(err)
	}
	var rep sim.Report
	if err := json.Unmarshal([]byte(out), &rep); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, out)
	}
	s := rep.Runs["serial"]
	if s == nil || s.Outcome.Requested != 3127 || s.Outcome.Admitted != 110 || s.Outcome.Terminated != 110 || s.Oracle.Checks != 11 {
		t.Errorf("serial row = %s, want requested 3127 / admitted 110 / terminated 110 / checks 11", withoutLatency(t, out))
	}
}
