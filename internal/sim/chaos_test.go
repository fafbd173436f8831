package sim

import (
	"encoding/json"
	"testing"
)

// marshal is the report's JSON document.
func marshal(t *testing.T, rep *Report) []byte {
	t.Helper()
	buf, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	return buf
}

// chaosRun executes a small chaos run and returns its report, also
// marshaled.
func chaosRun(t *testing.T, cfg StressConfig) (*Report, []byte) {
	t.Helper()
	res, err := RunChaos(cfg)
	if err != nil {
		t.Fatalf("RunChaos: %v", err)
	}
	return res, marshal(t, res)
}

func TestRunChaosDeterministic(t *testing.T) {
	cfg := StressConfig{Seed: 7, FaultRate: 0.2, Ops: 2000}
	r1, d1 := chaosRun(t, cfg)
	_, d2 := chaosRun(t, cfg)
	if string(d1) != string(d2) {
		t.Fatalf("same seed produced different reports:\n%s\n%s", d1, d2)
	}
	if r1.Failed() {
		t.Fatalf("invariant violations under chaos: %+v", r1.Oracle)
	}
	if r1.Outcome.Faults.Injected == 0 {
		t.Fatal("no faults injected at rate 0.2")
	}

	// A different seed must explore a different schedule.
	_, d3 := chaosRun(t, StressConfig{Seed: 8, FaultRate: 0.2, Ops: 2000})
	if string(d1) == string(d3) {
		t.Fatal("different seeds produced identical reports")
	}
}

func TestRunChaosZeroViolationsAcrossSeeds(t *testing.T) {
	for _, seed := range []int64{1, 3} {
		res, _ := chaosRun(t, StressConfig{Seed: seed, FaultRate: 0.25, Ops: 1500})
		if res.Failed() {
			t.Errorf("seed %d: %+v", seed, res.Oracle)
		}
		if res.Oracle.Checks == 0 {
			t.Errorf("seed %d: oracle never ran", seed)
		}
	}
}

func TestRunChaosExercisesRetryBudget(t *testing.T) {
	res, _ := chaosRun(t, StressConfig{Seed: 11, FaultRate: 0.4, Ops: 2000})
	faults := res.Outcome.Faults
	if faults.Retries == 0 {
		t.Error("fault rate 0.4 produced no retries")
	}
	if res.Outcome.Admitted == 0 {
		t.Error("nothing admitted under chaos — retry layer not absorbing faults")
	}
	if faults.ByKind["partial"] == 0 || faults.ByKind["error"] == 0 {
		t.Errorf("fault mix not exercised: %v", faults.ByKind)
	}
}
