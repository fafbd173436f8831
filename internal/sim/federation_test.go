package sim

import "testing"

// The parity acceptance bar: a 3-broker federation must produce exactly
// the 1-broker outcome sequence for the same workload — N=1 is
// behavior-identical to the single broker, and forwarding to a neighbor
// never changes an admission's fate.
func TestClusterSimParity(t *testing.T) {
	single, err := RunFederation(FederationConfig{Brokers: 1, Clients: 4000, Seed: 11})
	if err != nil {
		t.Fatalf("N=1: %v", err)
	}
	multi, err := RunFederation(FederationConfig{Brokers: 3, Clients: 4000, Seed: 11})
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
	if s, m := single.Outcome, multi.Outcome; s.Federation.OutcomeDigest != m.Federation.OutcomeDigest {
		t.Fatalf("outcome parity broken: N=1 %s (admitted %d, rejected %d) vs N=3 %s (admitted %d, rejected %d)",
			s.Federation.OutcomeDigest, s.Admitted, s.Rejected, m.Federation.OutcomeDigest, m.Admitted, m.Rejected)
	}
	if multi.Outcome.Federation.Forwarded == 0 {
		t.Fatalf("N=3 run forwarded nothing: %+v", multi.Outcome.Federation)
	}
}

// Same configuration, same digest: the multi-broker run is
// deterministic.
func TestClusterSimDeterministic(t *testing.T) {
	a, err := RunFederation(FederationConfig{Brokers: 3, Clients: 3000, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunFederation(FederationConfig{Brokers: 3, Clients: 3000, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if ja, jb := marshal(t, a), marshal(t, b); string(ja) != string(jb) || a.Digest != b.Digest {
		t.Fatalf("non-deterministic:\n%s\nvs\n%s", ja, jb)
	}
}

// TestFederationOnTheWire replays the federation with its neighbors
// reached the way aqosd -peer reaches them — core.PeerClient over SOAP to
// each member's Stack.Mount on a loopback listener — and requires the
// in-process run's outcome sequence, forwarding included, with no
// violation.
func TestFederationOnTheWire(t *testing.T) {
	cfg := FederationConfig{Brokers: 3, Clients: 2000, Seed: 7}
	local, err := runFederation(cfg, false)
	if err != nil {
		t.Fatal(err)
	}
	wire, err := runFederation(cfg, true)
	if err != nil {
		t.Fatal(err)
	}
	if wire.Failed() {
		t.Fatalf("wire run failed its oracle: %+v", wire.Oracle)
	}
	l, w := local.Outcome.Federation, wire.Outcome.Federation
	if w.OutcomeDigest != l.OutcomeDigest || w.Forwarded != l.Forwarded || w.Forwarded == 0 {
		t.Fatalf("wire digest %s (forwarded %d), in-process %s (forwarded %d)",
			w.OutcomeDigest, w.Forwarded, l.OutcomeDigest, l.Forwarded)
	}
}
