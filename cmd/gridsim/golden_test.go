package main

import (
	"bytes"
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

// golden runs gridsim and requires its document to equal the committed
// one byte for byte.
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
	if got != string(want) {
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
		// The chaos replay's intake rounds and kills with no injector:
		// group commit and WAL recovery alone, apart from the faults.
		{"chaos-intake", []string{"-chaos", "-seed", "7", "-faultrate", "0", "-json"},
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

// TestGoldenClusterSmallScale pins the federation-smoke CI command: the
// outcome digest and N=1 parity of a 3-broker federation.
func TestGoldenClusterSmallScale(t *testing.T) {
	out, err := runCapture(t, "-federation", "3", "-clients", "5000", "-seed", "7", "-json")
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	var rep sim.Report
	if err := json.Unmarshal([]byte(out), &rep); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, out)
	}
	const digest = "455c607a1cf3aa48"
	scale, baseline := rep.Runs["scale"].Outcome, rep.Runs["baseline"].Outcome
	if !rep.Oracle.Gates["parity"] || scale.Federation.OutcomeDigest != digest || baseline.Federation.OutcomeDigest != digest {
		t.Errorf("parity=%v scale=%s baseline=%s, want parity with digest %s",
			rep.Oracle.Gates["parity"], scale.Federation.OutcomeDigest, baseline.Federation.OutcomeDigest, digest)
	}
	if scale.Admitted != 4949 || scale.Rejected != 51 {
		t.Errorf("scale admitted/rejected = %d/%d, want 4949/51", scale.Admitted, scale.Rejected)
	}
	if scale.Federation.Forwarded == 0 {
		t.Error("the 3-broker federation forwarded nothing")
	}
}

// TestGoldenParallelSerialRow holds BENCH_parallel.json's serial child
// to the parallel-smoke command byte for byte: one client's schedule is a
// pure function of the seed, so its whole report is too. The parallel
// child interleaves goroutines and is only gated.
func TestGoldenParallelSerialRow(t *testing.T) {
	out, err := runCapture(t, "-parallel", "-json")
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	committed, err := os.ReadFile(filepath.Join("..", "..", "BENCH_parallel.json"))
	if err != nil {
		t.Fatal(err)
	}
	got, want := serialChild(t, []byte(out)), serialChild(t, committed)
	if !bytes.Equal(got, want) {
		t.Errorf("serial child diverged from BENCH_parallel.json:\n got: %s\nwant: %s", got, want)
	}
}

// serialChild returns the compacted runs.serial document of a -parallel
// report.
func serialChild(t *testing.T, doc []byte) []byte {
	t.Helper()
	var rep struct {
		Runs map[string]json.RawMessage `json:"runs"`
	}
	if err := json.Unmarshal(doc, &rep); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, doc)
	}
	var buf bytes.Buffer
	if err := json.Compact(&buf, rep.Runs["serial"]); err != nil {
		t.Fatalf("no serial child: %v\n%s", err, doc)
	}
	return buf.Bytes()
}
