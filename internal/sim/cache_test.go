package sim

import (
	"encoding/json"
	"testing"

	"gqosm/internal/obs"
)

// TestParallelCacheHitRate checks the cache plumbing end to end: with
// caches on (the default) a stress run reports a positive discovery
// hit rate; with DisableCaches the field stays zero and is omitted
// from the JSON, preserving the historical schema.
func TestParallelCacheHitRate(t *testing.T) {
	on, err := RunParallel(StressConfig{Clients: 4, Ops: 800, Phases: 4, Seed: 11, Obs: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	if on.CacheHitRate <= 0 {
		t.Errorf("cache-on run hit rate = %v, want > 0", on.CacheHitRate)
	}
	off, err := RunParallel(StressConfig{Clients: 4, Ops: 800, Phases: 4, Seed: 11, Obs: obs.NewRegistry(),
		DisableCaches: true})
	if err != nil {
		t.Fatal(err)
	}
	if off.CacheHitRate != 0 {
		t.Errorf("cache-off run hit rate = %v, want 0", off.CacheHitRate)
	}
	raw, err := json.Marshal(off)
	if err != nil {
		t.Fatal(err)
	}
	var fields map[string]any
	if err := json.Unmarshal(raw, &fields); err != nil {
		t.Fatal(err)
	}
	if _, ok := fields["cache_hit_rate"]; ok {
		t.Error("cache_hit_rate emitted for a cache-off run; want omitted")
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
	if serialOn.Requested != serialOff.Requested || serialOn.Admitted != serialOff.Admitted ||
		serialOn.Terminated != serialOff.Terminated {
		t.Errorf("serial cache on/off outcome divergence: on=%d/%d/%d off=%d/%d/%d",
			serialOn.Requested, serialOn.Admitted, serialOn.Terminated,
			serialOff.Requested, serialOff.Admitted, serialOff.Terminated)
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
		ja, err := json.Marshal(a)
		if err != nil {
			t.Fatal(err)
		}
		jb, err := json.Marshal(b)
		if err != nil {
			t.Fatal(err)
		}
		if string(ja) != string(jb) {
			t.Errorf("shards=%d chaos replay diverged:\n%s\nvs\n%s", shards, ja, jb)
		}
		if a.InvariantViolations != 0 {
			t.Errorf("shards=%d: %d invariant violations with caches on", shards, a.InvariantViolations)
		}
	}
}
