package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"gqosm/internal/sim"
)

// The golden contract: the exact gridsim invocations CI uses, compared
// byte-for-byte against the committed BENCH_* artifacts (or, for the
// artifacts too slow to regenerate in tier-1, against values pinned from
// the same commands at small scale). A simulation-driver refactor that
// changes any deterministic report field fails here first.

// dropLines removes every line mentioning key — how the one wall-clock
// field of an otherwise deterministic report is excluded without
// re-encoding the rest.
func dropLines(s, key string) string {
	var kept []string
	for _, line := range strings.Split(s, "\n") {
		if !strings.Contains(line, key) {
			kept = append(kept, line)
		}
	}
	return strings.Join(kept, "\n")
}

func readFile(t *testing.T, path ...string) string {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(path...))
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

func TestGoldenCommittedArtifacts(t *testing.T) {
	for _, tc := range []struct {
		name     string
		args     []string
		artifact []string
		strip    string // wall-clock key dropped from both sides
	}{
		{"chaos", []string{"-chaos", "-seed", "7", "-faultrate", "0.2", "-json"},
			[]string{"..", "..", "BENCH_chaos.json"}, ""},
		{"recovery", []string{"-chaos", "-restarts", "3", "-seed", "7", "-json"},
			[]string{"..", "..", "BENCH_recovery.json"}, `"recovery_p95_ms"`},
		{"shadow", []string{"-scenario", "all", "-shadow", "revenue-greedy", "-seed", "7", "-ops", "3000", "-json"},
			[]string{"..", "..", "BENCH_shadow.json"}, ""},
		{"chaos-intake", []string{"-chaos", "-intake", "-seed", "7", "-json"},
			[]string{"testdata", "chaos_intake_seed7.json"}, ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got, err := runCapture(t, tc.args...)
			if err != nil {
				t.Fatalf("%v: %v", tc.args, err)
			}
			want := readFile(t, tc.artifact...)
			if tc.strip != "" {
				got, want = dropLines(got, tc.strip), dropLines(want, tc.strip)
			}
			if got != want {
				t.Errorf("%v diverged from %s:\n got: %s\nwant: %s", tc.args, filepath.Join(tc.artifact...), got, want)
			}
		})
	}
}

// TestGoldenScenarios pins every deterministic field of the quick
// scenario replay (the scenario-matrix CI job's command); only the
// wall-clock latency block is excluded.
func TestGoldenScenarios(t *testing.T) {
	normalize := func(raw string) []byte {
		t.Helper()
		var reports map[string]map[string]any
		if err := json.Unmarshal([]byte(raw), &reports); err != nil {
			t.Fatalf("not JSON: %v\n%s", err, raw)
		}
		for _, r := range reports {
			delete(r, "latency")
		}
		out, err := json.MarshalIndent(reports, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	out, err := runCapture(t, "-scenario", "all", "-seed", "7", "-ops", "3000", "-json")
	if err != nil {
		t.Fatal(err)
	}
	got, want := normalize(out), normalize(readFile(t, "testdata", "scenarios_seed7_ops3000.json"))
	if !bytes.Equal(got, want) {
		t.Errorf("scenario reports diverged from testdata/scenarios_seed7_ops3000.json:\n got: %s\nwant: %s", got, want)
	}
}

// TestGoldenClusterSmallScale pins the cluster-smoke CI command: the
// outcome digest, N=1 parity and the hand-off drill's single owner.
func TestGoldenClusterSmallScale(t *testing.T) {
	out, err := runCapture(t, "-cluster", "3", "-clients", "5000", "-seed", "7", "-json")
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	var rep struct {
		Parity   bool                  `json:"parity"`
		Scale    *sim.ClusterSimResult `json:"scale"`
		Baseline *sim.ClusterSimResult `json:"baseline"`
		Handoff  struct {
			SingleOwner bool `json:"single_owner"`
		} `json:"handoff"`
	}
	if err := json.Unmarshal([]byte(out), &rep); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, out)
	}
	const digest = "455c607a1cf3aa48"
	if !rep.Parity || rep.Scale.OutcomeDigest != digest || rep.Baseline.OutcomeDigest != digest {
		t.Errorf("parity=%v scale=%s baseline=%s, want parity with digest %s",
			rep.Parity, rep.Scale.OutcomeDigest, rep.Baseline.OutcomeDigest, digest)
	}
	if rep.Scale.Admitted != 4949 || rep.Scale.Rejected != 51 {
		t.Errorf("scale admitted/rejected = %d/%d, want 4949/51", rep.Scale.Admitted, rep.Scale.Rejected)
	}
	if !rep.Handoff.SingleOwner {
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
	var rep map[string]*sim.ParallelResult
	if err := json.Unmarshal([]byte(out), &rep); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, out)
	}
	s := rep["serial"]
	if s == nil || s.Requested != 3127 || s.Admitted != 110 || s.Terminated != 110 || s.Checks != 11 {
		t.Errorf("serial row = %+v, want Requested 3127 / Admitted 110 / Terminated 110 / Checks 11", s)
	}
}
