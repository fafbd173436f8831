package sim

import "testing"

// The parity acceptance bar: a 3-broker cluster must produce exactly
// the 1-broker outcome sequence for the same workload — N=1 is
// behavior-identical to the single broker, and N=3 placement/fallback
// never changes an admission's fate.
func TestClusterSimParity(t *testing.T) {
	single, err := RunClusterSim(ClusterSimConfig{Brokers: 1, Clients: 4000, Seed: 11})
	if err != nil {
		t.Fatalf("N=1: %v", err)
	}
	multi, err := RunClusterSim(ClusterSimConfig{Brokers: 3, Clients: 4000, Seed: 11})
	if err != nil {
		t.Fatalf("N=3: %v", err)
	}
	for _, r := range []*Report{single, multi} {
		if r.Failed() {
			t.Fatalf("N=%v: %+v", r.Config["brokers"], r.Oracle)
		}
		if r.Outcome.Admitted == 0 || r.Outcome.Rejected == 0 {
			t.Fatalf("N=%v: degenerate workload: %+v", r.Config["brokers"], r.Outcome.Tally)
		}
	}
	if s, m := single.Outcome, multi.Outcome; s.Front.OutcomeDigest != m.Front.OutcomeDigest {
		t.Fatalf("outcome parity broken: N=1 %s (admitted %d, rejected %d) vs N=3 %s (admitted %d, rejected %d)",
			s.Front.OutcomeDigest, s.Admitted, s.Rejected, m.Front.OutcomeDigest, m.Admitted, m.Rejected)
	}
	if single.Outcome.Migration != nil {
		t.Errorf("N=1 run reports a migration block although none ran: %+v", single.Outcome.Migration)
	}
	if multi.Outcome.Migration.Migrations == 0 {
		t.Fatalf("N=3 run performed no migrations: %+v", multi.Outcome.Migration)
	}
}

// Same configuration, same digest: the multi-broker run is
// deterministic.
func TestClusterSimDeterministic(t *testing.T) {
	a, err := RunClusterSim(ClusterSimConfig{Brokers: 3, Clients: 3000, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunClusterSim(ClusterSimConfig{Brokers: 3, Clients: 3000, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if ja, jb := stripped(t, a), stripped(t, b); string(ja) != string(jb) || a.Digest != b.Digest {
		t.Fatalf("non-deterministic:\n%s\nvs\n%s", ja, jb)
	}
}

// The satellite-3 crash interleaving as a harness run: source killed
// after the target committed, recovered from WAL, reconciled — exactly
// one owner, no invariant violations, nothing leaked.
func TestHandoffCrashSingleOwner(t *testing.T) {
	res, err := RunHandoffCrash(HandoffCrashConfig{Brokers: 3, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	h := res.Outcome.Handoff
	if !res.Oracle.Gates["single_owner"] {
		t.Fatalf("expected single owner on %s, got %d owner(s) (last %q): %+v", h.Target, h.Owners, h.OwnerDomain, h)
	}
	if h.Completed != 1 {
		t.Fatalf("reconcile completed %d hand-offs, want 1: %+v", h.Completed, h)
	}
	if res.Failed() {
		t.Fatalf("drill failed: %+v", res.Oracle)
	}
}
