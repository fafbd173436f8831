package sim

import (
	"strings"
	"testing"

	"gqosm/internal/obs"
)

// TestParallelCacheHitRate checks the cache plumbing end to end: with
// caches on (the default) a stress run reports a positive discovery
// hit rate; with DisableCaches the counter is still emitted, as zero.
func TestParallelCacheHitRate(t *testing.T) {
	on, err := RunParallel(StressConfig{Clients: 4, Ops: 800, Phases: 4, Seed: 11, Obs: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	if on.Outcome.CacheHitRate <= 0 {
		t.Errorf("cache-on run hit rate = %v, want > 0", on.Outcome.CacheHitRate)
	}
	off, err := RunParallel(StressConfig{Clients: 4, Ops: 800, Phases: 4, Seed: 11, Obs: obs.NewRegistry(),
		DisableCaches: true})
	if err != nil {
		t.Fatal(err)
	}
	if off.Outcome.CacheHitRate != 0 {
		t.Errorf("cache-off run hit rate = %v, want 0", off.Outcome.CacheHitRate)
	}
	if !strings.Contains(string(stripped(t, off)), `"cache_hit_rate":0`) {
		t.Error("cache_hit_rate omitted for a cache-off run; a measured zero must be emitted")
	}

	// Caches must not change admission outcomes. Concurrent runs have
	// nondeterministic interleaving, so the A/B comparison uses serial
	// runs, whose schedules are pure functions of the seed.
	serialOn, err := RunParallel(StressConfig{Clients: 1, Ops: 800, Phases: 4, Seed: 11, Obs: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	serialOff, err := RunParallel(StressConfig{Clients: 1, Ops: 800, Phases: 4, Seed: 11, Obs: obs.NewRegistry(),
		DisableCaches: true})
	if err != nil {
		t.Fatal(err)
	}
	if on, off := serialOn.Outcome, serialOff.Outcome; on.Requested != off.Requested || on.Admitted != off.Admitted ||
		on.Rejected != off.Rejected || on.Terminated != off.Terminated {
		t.Errorf("serial cache on/off outcome divergence: on=%d/%d/%d/%d off=%d/%d/%d/%d",
			on.Requested, on.Admitted, on.Rejected, on.Terminated,
			off.Requested, off.Admitted, off.Rejected, off.Terminated)
	}
}

// TestChaosDeterministicWithCaches runs the chaos harness twice per
// configuration with caches enabled (the default): the JSON reports
// must be byte-identical and violation-free — the cache layer must not
// perturb the deterministic replay.
func TestChaosDeterministicWithCaches(t *testing.T) {
	for _, shards := range []int{1, 4} {
		cfg := StressConfig{Clients: 4, Ops: 600, Phases: 3, Seed: 7, FaultRate: 0.2, Shards: shards}
		a, err := RunChaos(cfg)
		if err != nil {
			t.Fatalf("shards=%d first run: %v", shards, err)
		}
		cfg.Obs = nil // fresh private registry for the replay
		b, err := RunChaos(cfg)
		if err != nil {
			t.Fatalf("shards=%d second run: %v", shards, err)
		}
		if ja, jb := stripped(t, a), stripped(t, b); string(ja) != string(jb) {
			t.Errorf("shards=%d chaos replay diverged:\n%s\nvs\n%s", shards, ja, jb)
		}
		if a.Failed() {
			t.Errorf("shards=%d: failed with caches on: %+v", shards, a.Oracle)
		}
	}
}
