package sim

import "testing"

// TestChaosDeterministicWithCaches runs the chaos harness twice per
// configuration with caches enabled (the default): the JSON reports
// must be byte-identical and violation-free — the cache layer must not
// perturb the deterministic replay.
func TestChaosDeterministicWithCaches(t *testing.T) {
	cfg := StressConfig{Clients: 4, Ops: 600, Phases: 3, Seed: 7, FaultRate: 0.2}
	a, err := RunChaos(cfg)
	if err != nil {
		t.Fatalf("first run: %v", err)
	}
	cfg.Obs = nil // fresh private registry for the replay
	b, err := RunChaos(cfg)
	if err != nil {
		t.Fatalf("second run: %v", err)
	}
	if ja, jb := marshal(t, a), marshal(t, b); string(ja) != string(jb) {
		t.Errorf("chaos replay diverged:\n%s\nvs\n%s", ja, jb)
	}
	if a.Failed() {
		t.Errorf("failed with caches on: %+v", a.Oracle)
	}
}
