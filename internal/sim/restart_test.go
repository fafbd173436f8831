package sim

import "testing"

// TestRestartChaosDeterministicAndClean: the chaos run's kills in
// miniature — zero oracle violations, every
// recovery digest-identical to the broker it replaced, capacity fully
// restored at drain, and the whole report byte-identical across two
// runs of the same seed.
func TestRestartChaosDeterministicAndClean(t *testing.T) {
	run := func() *Report {
		t.Helper()
		res, err := RunChaos(StressConfig{
			Seed: 7, Ops: 1600, Restarts: 3, FaultRate: 0.1, WALDir: t.TempDir(),
		})
		if err != nil {
			t.Fatalf("RunChaos: %v", err)
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

	if ja, jb := marshal(t, a), marshal(t, run()); string(ja) != string(jb) {
		t.Fatalf("same-seed reports differ:\n a: %s\n b: %s", ja, jb)
	}
}

// TestRestartChaosMatrixSeeds mirrors the CI matrix cells (seeds 1 and
// 7) at small scale: both stay violation-free.
func TestRestartChaosMatrixSeeds(t *testing.T) {
	for _, seed := range []int64{1, 7} {
		res, err := RunChaos(StressConfig{
			Seed: seed, Ops: 800, Restarts: 2, FaultRate: 0.1, WALDir: t.TempDir(),
		})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if res.Failed() || res.Outcome.Recovery.DigestMatches != 2 {
			t.Fatalf("seed %d: %+v\nrecovery %+v", seed, res.Oracle, res.Outcome.Recovery)
		}
	}
}
