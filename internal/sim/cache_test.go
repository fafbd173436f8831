package sim

import (
	"strings"
	"testing"

	"gqosm/internal/obs"
)

// TestParallelCacheHitRate checks the cache plumbing end to end: a stress
// run reports a positive discovery hit rate under the cache_hit_rate key.
// That the cache changes no outcome is internal/core's
// TestDiscoverCacheParity.
func TestParallelCacheHitRate(t *testing.T) {
	rep, err := RunParallel(StressConfig{Clients: 4, Ops: 800, Phases: 4, Seed: 11, Obs: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Outcome.CacheHitRate <= 0 {
		t.Errorf("hit rate = %v, want > 0", rep.Outcome.CacheHitRate)
	}
	if !strings.Contains(string(marshal(t, rep)), `"cache_hit_rate":`) {
		t.Error("report omits cache_hit_rate")
	}
}

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
