package sim

import (
	"encoding/json"
	"testing"
)

// chaosRun executes a small chaos run and returns its marshaled report.
func chaosRun(t *testing.T, cfg StressConfig) (*ChaosResult, []byte) {
	t.Helper()
	res, err := RunChaos(cfg)
	if err != nil {
		t.Fatalf("RunChaos: %v", err)
	}
	data, err := json.Marshal(res)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	return res, data
}

func TestRunChaosDeterministic(t *testing.T) {
	cfg := StressConfig{Seed: 7, FaultRate: 0.2, Ops: 2000, Shards: 2}
	r1, d1 := chaosRun(t, cfg)
	_, d2 := chaosRun(t, cfg)
	if string(d1) != string(d2) {
		t.Fatalf("same seed produced different reports:\n%s\n%s", d1, d2)
	}
	if r1.InvariantViolations != 0 {
		t.Fatalf("invariant violations under chaos: %v", r1.Violations)
	}
	if r1.FaultsInjected == 0 {
		t.Fatal("no faults injected at rate 0.2")
	}

	// A different seed must explore a different schedule.
	_, d3 := chaosRun(t, StressConfig{Seed: 8, FaultRate: 0.2, Ops: 2000, Shards: 2})
	if string(d1) == string(d3) {
		t.Fatal("different seeds produced identical reports")
	}
}

func TestRunChaosZeroViolationsAcrossSeeds(t *testing.T) {
	for _, seed := range []int64{1, 3} {
		for _, shards := range []int{1, 4} {
			res, _ := chaosRun(t, StressConfig{Seed: seed, FaultRate: 0.25, Ops: 1500, Shards: shards})
			if res.InvariantViolations != 0 {
				t.Errorf("seed %d shards %d: %v", seed, shards, res.Violations)
			}
			if res.Checks == 0 {
				t.Errorf("seed %d shards %d: oracle never ran", seed, shards)
			}
		}
	}
}

func TestRunChaosExercisesRetryBudget(t *testing.T) {
	res, _ := chaosRun(t, StressConfig{Seed: 11, FaultRate: 0.4, Ops: 2000})
	if res.Retries == 0 {
		t.Error("fault rate 0.4 produced no retries")
	}
	if res.Admitted == 0 {
		t.Error("nothing admitted under chaos — retry layer not absorbing faults")
	}
	if res.FaultsByKind["partial"] == 0 || res.FaultsByKind["error"] == 0 {
		t.Errorf("fault mix not exercised: %v", res.FaultsByKind)
	}
}
