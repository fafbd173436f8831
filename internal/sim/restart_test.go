package sim

import (
	"encoding/json"
	"testing"
)

// TestRestartChaosDeterministicAndClean: the restart-chaos run is the
// PR's acceptance bar in miniature — zero oracle violations, every
// recovery digest-identical to the broker it replaced, capacity fully
// restored at drain, and the whole report (minus wall-clock recovery
// time) byte-identical across two runs of the same seed.
func TestRestartChaosDeterministicAndClean(t *testing.T) {
	run := func() *RestartResult {
		t.Helper()
		res, err := RunRestartChaos(StressConfig{
			Seed: 7, Ops: 1600, Restarts: 3, FaultRate: 0.1, WALDir: t.TempDir(),
		})
		if err != nil {
			t.Fatalf("RunRestartChaos: %v", err)
		}
		return res
	}
	a := run()
	if a.InvariantViolations != 0 {
		t.Fatalf("%d invariant violation(s):\n%v", a.InvariantViolations, a.Violations)
	}
	if a.DigestMatches != a.Restarts {
		t.Fatalf("digest matches = %d, want %d", a.DigestMatches, a.Restarts)
	}
	if !a.CapacityRestored {
		t.Fatal("capacity not restored after drain")
	}
	if a.ReplayedRecords == 0 {
		t.Fatal("no WAL records replayed — the harness never exercised recovery")
	}

	b := run()
	stripA, stripB := *a, *b
	stripA.RecoveryP95MS, stripB.RecoveryP95MS = 0, 0
	ja, _ := json.Marshal(stripA)
	jb, _ := json.Marshal(stripB)
	if string(ja) != string(jb) {
		t.Fatalf("same-seed reports differ:\n a: %s\n b: %s", ja, jb)
	}
}

// TestRestartChaosShardedSeeds mirrors the CI matrix cells at small
// scale: both shard counts stay violation-free.
func TestRestartChaosShardedSeeds(t *testing.T) {
	for _, shards := range []int{1, 4} {
		res, err := RunRestartChaos(StressConfig{
			Seed: 1, Ops: 800, Restarts: 2, FaultRate: 0.1, Shards: shards, WALDir: t.TempDir(),
		})
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		if res.InvariantViolations != 0 {
			t.Fatalf("shards=%d: %d violation(s):\n%v", shards, res.InvariantViolations, res.Violations)
		}
		if res.DigestMatches != res.Restarts {
			t.Fatalf("shards=%d: digest matches = %d, want %d", shards, res.DigestMatches, res.Restarts)
		}
		if !res.CapacityRestored {
			t.Fatalf("shards=%d: capacity not restored", shards)
		}
	}
}
