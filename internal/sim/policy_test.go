package sim

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
)

// These are the behavior-identity regressions for the policy extraction:
// naming the "paper" policy explicitly must be indistinguishable from the
// pre-extraction default across every harness, so the committed BENCH_*
// artifacts stay byte-stable (modulo wall-clock latency fields).

// stripped marshals a scenario report without its only wall-clock block.
func stripped(t *testing.T, rep *ScenarioReport) []byte {
	t.Helper()
	c := *rep
	c.Latency = nil
	buf, err := json.Marshal(&c)
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
	if d, n := stripped(t, defRep), stripped(t, namedRep); !bytes.Equal(d, n) {
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
	// ChaosResult has no wall-clock fields at all; require full equality.
	if !reflect.DeepEqual(defRes, namedRes) {
		d, _ := json.Marshal(defRes)
		n, _ := json.Marshal(namedRes)
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
	// Only the deterministic lifecycle fields — latency and throughput
	// are wall-clock.
	type determ struct {
		Requested, Admitted, Terminated, Checks, Shards int
		ShardSessions                                   []int
	}
	d := determ{defRes.Requested, defRes.Admitted, defRes.Terminated, defRes.Checks, defRes.Shards, defRes.ShardSessions}
	n := determ{namedRes.Requested, namedRes.Admitted, namedRes.Terminated, namedRes.Checks, namedRes.Shards, namedRes.ShardSessions}
	if !reflect.DeepEqual(d, n) {
		t.Errorf("explicit paper policy changed the parallel run: default %+v, paper %+v", d, n)
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
			if o, s := stripped(t, off), stripped(t, on); !bytes.Equal(o, s) {
				t.Errorf("shadow %s mutated the run:\n off: %s\n on:  %s", candidate, o, s)
			}
		})
	}
}
