package sim

import "testing"

// TestRestartChaosDeterministicAndClean: the restart-chaos run is the
// PR's acceptance bar in miniature — zero oracle violations, every
// recovery digest-identical to the broker it replaced, capacity fully
// restored at drain, and the whole report (minus its latency block)
// byte-identical across two runs of the same seed.
func TestRestartChaosDeterministicAndClean(t *testing.T) {
	run := func() *Report {
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
	rec := a.Outcome.Recovery
	if a.Oracle.Violations != 0 {
		t.Fatalf("%d invariant violation(s):\n%v", a.Oracle.Violations, a.Oracle.Details)
	}
	if rec.DigestMatches != 3 || !a.Oracle.Gates["digests_match"] {
		t.Fatalf("digest matches = %d of %d restarts", rec.DigestMatches, rec.Restarts)
	}
	if !a.Oracle.Gates["capacity_restored"] {
		t.Fatal("capacity not restored after drain")
	}
	if rec.ReplayedRecords == 0 {
		t.Fatal("no WAL records replayed — the harness never exercised recovery")
	}

	if _, ok := a.Latency["recovery_p95_ms"]; !ok {
		t.Errorf("latency block lacks recovery_p95_ms: %v", a.Latency)
	}
	if ja, jb := stripped(t, a), stripped(t, run()); string(ja) != string(jb) {
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
		if res.Failed() || res.Outcome.Recovery.DigestMatches != 2 {
			t.Fatalf("shards=%d: %+v\nrecovery %+v", shards, res.Oracle, res.Outcome.Recovery)
		}
	}
}
