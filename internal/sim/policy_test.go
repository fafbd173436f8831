package sim

import (
	"bytes"
	"encoding/json"
	"testing"
)

// These are the behavior-identity regressions for the policy extraction:
// naming the "paper" policy explicitly must be indistinguishable from the
// pre-extraction default across every harness, so the committed BENCH_*
// artifacts stay byte-stable (modulo wall-clock latency fields).

// stripped marshals a report without its wall-clock block.
func stripped(t *testing.T, rep *Report) []byte {
	t.Helper()
	c := *rep
	c.Latency = nil
	buf, err := json.Marshal(&c)
	if err != nil {
		t.Fatal(err)
	}
	return buf
}

// behaviour marshals what a run did and found. The config (which names
// the policy) and the digest over it are left out: they differ by design
// between the runs these tests compare.
func behaviour(t *testing.T, rep *Report) []byte {
	t.Helper()
	buf, err := json.Marshal([]any{rep.Outcome, rep.Oracle})
	if err != nil {
		t.Fatal(err)
	}
	return buf
}

func TestPaperPolicyScenarioByteIdentity(t *testing.T) {
	sc, ok := LookupScenario("flash-crowd")
	if !ok {
		t.Fatal("flash-crowd scenario missing")
	}
	base := ScenarioConfig{Seed: 7, Ops: 1500}
	named := base
	named.Policy = "paper"

	defRep, err := RunScenario(sc, base)
	if err != nil {
		t.Fatal(err)
	}
	namedRep, err := RunScenario(sc, named)
	if err != nil {
		t.Fatal(err)
	}
	if d, n := behaviour(t, defRep), behaviour(t, namedRep); !bytes.Equal(d, n) {
		t.Errorf("explicit paper policy changed the scenario report:\n default: %s\n paper:   %s", d, n)
	}
}

func TestPaperPolicyChaosByteIdentity(t *testing.T) {
	base := StressConfig{Seed: 7, Ops: 2000, FaultRate: 0.2, Shards: 2}
	named := base
	named.Policy = "paper"

	defRes, err := RunChaos(base)
	if err != nil {
		t.Fatal(err)
	}
	namedRes, err := RunChaos(named)
	if err != nil {
		t.Fatal(err)
	}
	if d, n := behaviour(t, defRes), behaviour(t, namedRes); !bytes.Equal(d, n) {
		t.Errorf("explicit paper policy changed the chaos report:\n default: %s\n paper:   %s", d, n)
	}
}

func TestPaperPolicyParallelIdentity(t *testing.T) {
	base := StressConfig{Clients: 1, Ops: 1000, Seed: 7, Shards: 2}
	named := base
	named.Policy = "paper"

	defRes, err := RunParallel(base)
	if err != nil {
		t.Fatal(err)
	}
	namedRes, err := RunParallel(named)
	if err != nil {
		t.Fatal(err)
	}
	// One client's schedule is a pure function of the seed, so everything
	// outside the latency block must agree.
	if d, n := behaviour(t, defRes), behaviour(t, namedRes); !bytes.Equal(d, n) {
		t.Errorf("explicit paper policy changed the parallel run:\n default: %s\n paper:   %s", d, n)
	}
	if len(defRes.Outcome.ShardSessions) != 2 {
		t.Errorf("shard_sessions = %v, want one entry per shard", defRes.Outcome.ShardSessions)
	}
}

// TestShadowScenarioByteIdentity is the sim-level shadow-inertness gate:
// turning shadow consultation on must not change the scenario report.
func TestShadowScenarioByteIdentity(t *testing.T) {
	sc, ok := LookupScenario("reneg-storm")
	if !ok {
		t.Fatal("reneg-storm scenario missing")
	}
	base := ScenarioConfig{Seed: 7, Ops: 1500, Shards: 2}
	for _, candidate := range []string{"revenue-greedy"} {
		candidate := candidate
		t.Run(candidate, func(t *testing.T) {
			off, err := RunScenario(sc, base)
			if err != nil {
				t.Fatal(err)
			}
			onCfg := base
			onCfg.ShadowPolicy = candidate
			on, err := RunScenario(sc, onCfg)
			if err != nil {
				t.Fatal(err)
			}
			if o, s := behaviour(t, off), behaviour(t, on); !bytes.Equal(o, s) {
				t.Errorf("shadow %s mutated the run:\n off: %s\n on:  %s", candidate, o, s)
			}
		})
	}
}
