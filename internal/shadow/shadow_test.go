package shadow

import (
	"bytes"
	"encoding/json"
	"testing"

	"gqosm/internal/sim"
)

func scenario(t *testing.T, name string) sim.Scenario {
	t.Helper()
	sc, ok := sim.LookupScenario(name)
	if !ok {
		t.Fatalf("scenario %q missing", name)
	}
	return sc
}

// TestEvaluateDivergenceShape pins, per candidate, WHICH decision family
// diverges on a fixed seed: revenue-greedy only ever answers partition
// admissions differently. A divergence appearing in any other family
// means a candidate is reaching decisions it should not touch.
func TestEvaluateDivergenceShape(t *testing.T) {
	cases := []struct {
		candidate, scenario string
		divergeFamily       string
	}{
		// flash-crowd saturates C_G, so the reserve-admitting candidate
		// answers many admissions differently.
		{"revenue-greedy", "flash-crowd", "partition"},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.candidate, func(t *testing.T) {
			sr, err := Evaluate(scenario(t, tc.scenario), Config{
				Candidate: tc.candidate, Seed: 7, Ops: 1500,
			})
			if err != nil {
				t.Fatal(err)
			}
			if sr.Verdict != "ok" {
				t.Fatalf("verdict = %q, violations %v", sr.Verdict, sr.Violations)
			}
			if !sr.ShadowClean {
				t.Fatalf("shadow run not clean: active %s shadow %s", sr.ActiveDigest, sr.ShadowDigest)
			}
			if sr.Evaluations <= 0 {
				t.Fatalf("evaluations = %d, want > 0", sr.Evaluations)
			}
			for family, n := range sr.Divergence {
				if family == tc.divergeFamily {
					if n <= 0 {
						t.Errorf("divergence[%s] = %d, want > 0", family, n)
					}
					continue
				}
				if n != 0 {
					t.Errorf("divergence[%s] = %d, want 0 (only %s should diverge)", family, n, tc.divergeFamily)
				}
			}
		})
	}
}

// TestRunDeterminism requires two evaluations at the same (candidate,
// seed, ops) to serialize byte-identically — the property the CI
// determinism gate diffs without stripping anything.
func TestRunDeterminism(t *testing.T) {
	scs := []sim.Scenario{scenario(t, "flash-crowd"), scenario(t, "lease-churn")}
	cfg := Config{Candidate: "revenue-greedy", Seed: 7, Ops: 800}
	var out [2][]byte
	for i := range out {
		rep, err := Run(scs, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Failed() {
			t.Fatalf("run %d verdict = %q", i, rep.Verdict)
		}
		buf, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = buf
	}
	if !bytes.Equal(out[0], out[1]) {
		t.Errorf("reports differ across reruns:\n%s\n%s", out[0], out[1])
	}
}

func TestEvaluateUnknownCandidate(t *testing.T) {
	if _, err := Evaluate(scenario(t, "flash-crowd"), Config{Candidate: "no-such"}); err == nil {
		t.Fatal("unknown candidate did not fail")
	}
	if _, err := Run(nil, Config{Candidate: "paper"}); err == nil {
		t.Fatal("empty scenario list did not fail")
	}
}

// TestReportSchema pins the report envelope CI's jq gates parse.
func TestReportSchema(t *testing.T) {
	rep, err := Run([]sim.Scenario{scenario(t, "lease-churn")}, Config{
		Candidate: "revenue-greedy", Seed: 1, Ops: 500,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Schema != Schema || rep.Candidate != "revenue-greedy" || rep.Seed != 1 {
		t.Errorf("envelope = %+v", rep)
	}
	sr := rep.Scenarios["lease-churn"]
	if sr == nil {
		t.Fatal("lease-churn result missing")
	}
	if sr.ActiveDigest == "" || sr.ShadowDigest == "" || len(sr.Divergence) == 0 {
		t.Errorf("scenario result incomplete: %+v", sr)
	}
	if (rep.Verdict == "ok") == rep.Failed() {
		t.Errorf("Failed() inconsistent with verdict %q", rep.Verdict)
	}
}
