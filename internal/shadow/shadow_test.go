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

// TestEvaluateDivergenceShape pins the divergence block on a fixed seed:
// its one key is the partition grant, the one decision a candidate
// answers, and flash-crowd saturates C_G, so the reserve-admitting
// candidate answers some — never more than were asked — differently.
func TestEvaluateDivergenceShape(t *testing.T) {
	t.Run("revenue-greedy", func(t *testing.T) {
		rep, err := Evaluate(scenario(t, "flash-crowd"), Config{
			Candidate: "revenue-greedy", Seed: 7, Ops: 1500,
		})
		if err != nil {
			t.Fatal(err)
		}
		sh := rep.Outcome.Shadow
		if rep.Failed() {
			t.Fatalf("failed: %+v", rep.Oracle)
		}
		if !rep.Oracle.Gates["shadow_clean"] || sh.ActiveDigest != sh.ShadowDigest {
			t.Fatalf("shadow run not clean: active %s shadow %s", sh.ActiveDigest, sh.ShadowDigest)
		}
		n, ok := sh.Divergence["partition"]
		if !ok || len(sh.Divergence) != 1 {
			t.Fatalf("divergence = %v, want the one key partition", sh.Divergence)
		}
		if n <= 0 || n > sh.Evaluations {
			t.Errorf("divergence[partition] = %d of %d evaluations, want within (0, evaluations]", n, sh.Evaluations)
		}
	})
}

// TestRunDeterminism requires two evaluations at the same (candidate,
// seed, ops) to carry the same digest and to serialize byte-identically
// once every latency block, the children's included, is deleted — the
// property the CI determinism gate diffs.
func TestRunDeterminism(t *testing.T) {
	scs := []sim.Scenario{scenario(t, "flash-crowd"), scenario(t, "lease-churn")}
	cfg := Config{Candidate: "revenue-greedy", Seed: 7, Ops: 800}
	var out [2][]byte
	var digests [2]string
	for i := range out {
		rep, err := Run(scs, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Failed() {
			t.Fatalf("run %d failed: %+v", i, rep.Oracle)
		}
		digests[i] = rep.Digest
		out[i] = withoutLatency(t, rep)
	}
	if !bytes.Equal(out[0], out[1]) || digests[0] != digests[1] {
		t.Errorf("reports differ across reruns (digests %v):\n%s\n%s", digests, out[0], out[1])
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

// withoutLatency marshals rep with every latency key deleted, as CI's
// jq 'del(.. | .latency?)' does.
func withoutLatency(t *testing.T, rep *sim.Report) []byte {
	t.Helper()
	raw, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	var doc any
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	var strip func(v any)
	strip = func(v any) {
		if m, ok := v.(map[string]any); ok {
			delete(m, "latency")
			for _, child := range m {
				strip(child)
			}
		}
	}
	strip(doc)
	if raw, err = json.Marshal(doc); err != nil {
		t.Fatal(err)
	}
	return raw
}

// TestReportSchema pins the report envelope CI's jq gates parse.
func TestReportSchema(t *testing.T) {
	rep, err := Run([]sim.Scenario{scenario(t, "lease-churn")}, Config{
		Candidate: "revenue-greedy", Seed: 1, Ops: 500,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Schema != sim.Schema || rep.Mode != "scenario" || rep.Config["shadow"] != "revenue-greedy" || rep.Config["seed"] != int64(1) {
		t.Errorf("envelope = %s", withoutLatency(t, rep))
	}
	sr := rep.Runs["lease-churn"]
	if sr == nil {
		t.Fatal("lease-churn result missing")
	}
	sh := sr.Outcome.Shadow
	if sh == nil || sh.ActiveDigest == "" || sh.ShadowDigest == "" || len(sh.Divergence) == 0 {
		t.Fatalf("scenario result incomplete: %s", withoutLatency(t, sr))
	}
	for _, name := range []string{"active", "shadow", "candidate"} {
		if child := sr.Runs[name]; child == nil || child.Outcome.Requested == 0 || child.Oracle.Checks == 0 {
			t.Errorf("child run %q missing or degenerate: %+v", name, child)
		}
	}
	if sr.Runs["shadow"].Config["shadow_policy"] != "revenue-greedy" || sr.Runs["candidate"].Config["policy"] != "revenue-greedy" {
		t.Errorf("child configs do not name the candidate: %v / %v", sr.Runs["shadow"].Config, sr.Runs["candidate"].Config)
	}
	if rep.Oracle.Checks != sr.Oracle.Checks || sr.Oracle.Checks == 0 {
		t.Errorf("composite checks %d, child %d: want the children's sum", rep.Oracle.Checks, sr.Oracle.Checks)
	}
	// One failed gate anywhere below fails the whole document.
	if rep.Failed() {
		t.Fatalf("clean run marked failed: %+v", sr.Oracle)
	}
	sr.Oracle.Gates["shadow_clean"] = false
	if !rep.Failed() {
		t.Error("Failed() ignores a child's false gate")
	}
}
