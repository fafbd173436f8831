package cluster

import (
	"errors"
	"testing"
	"time"

	"gqosm/internal/clockx"
	"gqosm/internal/core"
	"gqosm/internal/gara"
	"gqosm/internal/registry"
	"gqosm/internal/resource"
	"gqosm/internal/sla"
)

var (
	ct0 = time.Date(2003, 6, 16, 9, 0, 0, 0, time.UTC)
	ct5 = ct0.Add(5 * time.Hour)
)

// member builds one in-process cluster member: its own pool, GARA and
// registry (the shape a separate aqosd process owns), advertising the
// shared "svc" service.
func member(t *testing.T, domain string, nodes float64) *core.Broker {
	t.Helper()
	clock := clockx.NewManual(ct0)
	pool := resource.NewPool(domain, resource.Nodes(nodes))
	g := gara.NewSystem()
	g.RegisterManager(gara.NewComputeManager(pool))
	reg := registry.New(clock)
	if _, err := reg.Register(registry.Service{
		Name:       "svc",
		Provider:   domain,
		Properties: []registry.Property{registry.NumProp("cpu-nodes", nodes)},
	}); err != nil {
		t.Fatal(err)
	}
	b, err := core.NewBroker(core.Config{
		Domain: domain,
		Clock:  clock,
		Plan: core.CapacityPlan{
			Guaranteed: resource.Nodes(nodes * 0.6),
			Adaptive:   resource.Nodes(nodes * 0.2),
			BestEffort: resource.Nodes(nodes * 0.2),
		},
		Registry:      reg,
		GARA:          g,
		ConfirmWindow: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(b.Close)
	return b
}

func clusterRequest(client string, n float64) core.Request {
	return core.Request{
		Service: "svc",
		Client:  client,
		Class:   sla.ClassGuaranteed,
		Spec:    sla.NewSpec(sla.Exact(resource.CPU, n)),
		Start:   ct0,
		End:     ct5,
	}
}

// TestRingDeterministic: the consistent-hash order is a stable,
// complete permutation — the same client maps to the same broker
// sequence on every call and on a freshly built ring.
func TestRingDeterministic(t *testing.T) {
	domains := []string{"node-1", "node-2", "node-3"}
	r1 := newHashRing(domains)
	r2 := newHashRing(domains)
	for _, client := range []string{"alice", "bob", "client-0042", ""} {
		a := r1.order(client, len(domains))
		b := r2.order(client, len(domains))
		if len(a) != len(domains) {
			t.Fatalf("order(%q) = %v, want a full permutation of %d slots", client, a, len(domains))
		}
		seen := make(map[int]bool)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("order(%q) unstable: %v vs %v", client, a, b)
			}
			if seen[a[i]] {
				t.Fatalf("order(%q) repeats slot %d: %v", client, a[i], a)
			}
			seen[a[i]] = true
		}
	}
}

// TestFrontDefaultPolicyNames pins the name the cluster report echoes
// under "placement" (BENCH_cluster.json).
func TestFrontDefaultPolicyNames(t *testing.T) {
	if got := PlaceHash.String(); got != "hash" {
		t.Errorf("PlaceHash = %q, want hash", got)
	}
}

// TestFrontSingleSlotDegenerates: with one slot the front is the plain
// broker — same offers, same refusals, nothing forwarded.
func TestFrontSingleSlotDegenerates(t *testing.T) {
	direct := member(t, "solo", 40)
	fronted := member(t, "solo", 40)
	front, err := New(Config{}, NewSlot(fronted))
	if err != nil {
		t.Fatal(err)
	}

	for i, n := range []float64{5, 10, 100, 9} {
		client := "client"
		dOffer, dErr := direct.RequestService(clusterRequest(client, n))
		fOffer, fErr := front.RequestService(clusterRequest(client, n))
		if (dErr == nil) != (fErr == nil) {
			t.Fatalf("step %d: direct err %v vs front err %v", i, dErr, fErr)
		}
		if dErr != nil {
			continue
		}
		if fOffer.Forwarded || fOffer.Domain != "solo" {
			t.Fatalf("step %d: front offer = %+v, want un-forwarded solo", i, fOffer)
		}
		if dOffer.SLA.ID != fOffer.SLA.ID || !dOffer.SLA.Allocated.Equal(fOffer.SLA.Allocated) {
			t.Fatalf("step %d: offers diverge: %+v vs %+v", i, dOffer.SLA, fOffer.SLA)
		}
		if err := front.Accept(fOffer.SLA.ID); err != nil {
			t.Fatalf("step %d: front Accept: %v", i, err)
		}
		if err := direct.Accept(dOffer.SLA.ID); err != nil {
			t.Fatalf("step %d: direct Accept: %v", i, err)
		}
	}
}

// TestFrontFallbackWhenHomeFull: when the hash-placed broker is out of
// capacity the federation fan-out lands the admission on another member,
// and lifecycle calls follow the offer to the owning broker.
func TestFrontFallbackWhenHomeFull(t *testing.T) {
	a := member(t, "node-a", 20)
	b := member(t, "node-b", 20)
	front, err := New(Config{}, NewSlot(a), NewSlot(b))
	if err != nil {
		t.Fatal(err)
	}

	// Fill the client's hash-home completely, so its next admission must
	// fall back to the other member.
	const client = "fallback-client"
	homeIdx := front.route(client)[0]
	home := front.Slots()[homeIdx]
	other := front.Slots()[1-homeIdx]
	fill, err := home.Broker().RequestService(clusterRequest("filler", 12)) // the whole guaranteed partition
	if err != nil {
		t.Fatalf("filling %s: %v", home.Domain(), err)
	}
	if err := home.Broker().Accept(fill.SLA.ID); err != nil {
		t.Fatal(err)
	}

	offer, err := front.RequestService(clusterRequest(client, 10))
	if err != nil {
		t.Fatalf("RequestService: %v", err)
	}
	if !offer.Forwarded || offer.Domain != other.Domain() {
		t.Fatalf("offer = %+v, want fallback onto %q", offer, other.Domain())
	}
	if owner, ok := front.Owner(offer.SLA.ID); !ok || owner != other.Domain() {
		t.Fatalf("Owner = %q, %v; want %q", owner, ok, other.Domain())
	}
	if err := front.Accept(offer.SLA.ID); err != nil {
		t.Fatalf("Accept via front: %v", err)
	}
	if err := front.Terminate(offer.SLA.ID, "done"); err != nil {
		t.Fatalf("Terminate via front: %v", err)
	}
	if _, ok := front.Owner(offer.SLA.ID); ok {
		t.Error("owner table still tracks the terminated session")
	}
}

// TestFrontSkipsRecoveringSlot: a recovering member takes no new
// placements; with every member recovering the front refuses outright.
func TestFrontSkipsRecoveringSlot(t *testing.T) {
	a := member(t, "node-a", 20)
	b := member(t, "node-b", 20)
	sa, sb := NewSlot(a), NewSlot(b)
	front, err := New(Config{}, sa, sb)
	if err != nil {
		t.Fatal(err)
	}

	const client = "steady-client"
	homeIdx := front.route(client)[0]
	slots := []*Slot{sa, sb}
	slots[homeIdx].MarkRecovering(true)

	offer, err := front.RequestService(clusterRequest(client, 5))
	if err != nil {
		t.Fatalf("RequestService with home recovering: %v", err)
	}
	if offer.Domain != slots[1-homeIdx].Domain() {
		t.Fatalf("offer landed on %q, want the healthy member %q", offer.Domain, slots[1-homeIdx].Domain())
	}

	slots[1-homeIdx].MarkRecovering(true)
	if _, err := front.RequestService(clusterRequest(client, 5)); !errors.Is(err, ErrNoBrokerAvailable) {
		t.Fatalf("err = %v, want ErrNoBrokerAvailable with every member recovering", err)
	}
}

// TestFrontMigrate: a hand-off through the front moves the session and
// its ownership; the source frees its capacity, lifecycle calls land on
// the target, and a second migrate back also works.
func TestFrontMigrate(t *testing.T) {
	a := member(t, "node-a", 20)
	b := member(t, "node-b", 20)
	front, err := New(Config{}, NewSlot(a), NewSlot(b))
	if err != nil {
		t.Fatal(err)
	}

	offer, err := front.RequestService(clusterRequest("mover", 5))
	if err != nil {
		t.Fatal(err)
	}
	id := offer.SLA.ID
	if err := front.Accept(id); err != nil {
		t.Fatal(err)
	}
	srcDom := offer.Domain
	tgtDom := "node-a"
	if srcDom == "node-a" {
		tgtDom = "node-b"
	}
	srcFree := frontBroker(t, front, srcDom).Allocator().AvailableGuaranteed()

	if err := front.Migrate(id, tgtDom); err != nil {
		t.Fatalf("Migrate: %v", err)
	}
	if owner, _ := front.Owner(id); owner != tgtDom {
		t.Fatalf("Owner = %q, want %q", owner, tgtDom)
	}
	if doc, err := frontBroker(t, front, tgtDom).Session(id); err != nil || doc.State.Terminal() {
		t.Fatalf("target copy = %+v, %v", doc, err)
	}
	if doc, err := frontBroker(t, front, srcDom).Session(id); err != nil && !errors.Is(err, core.ErrUnknownSession) {
		t.Fatal(err)
	} else if err == nil && !doc.State.Terminal() {
		t.Fatalf("source copy still live: %+v", doc)
	}
	// The drained capacity came back (plus the freed 5-node slice).
	gotFree := frontBroker(t, front, srcDom).Allocator().AvailableGuaranteed()
	if gotFree.CPU <= srcFree.CPU {
		t.Errorf("source free CPU %v after migrate, want more than %v", gotFree.CPU, srcFree.CPU)
	}
	// Lifecycle follows the session to its new home.
	if err := front.Terminate(id, "done"); err != nil {
		t.Fatalf("Terminate after migrate: %v", err)
	}
}

func frontBroker(t *testing.T, f *Front, domain string) *core.Broker {
	t.Helper()
	for _, s := range f.Slots() {
		if s.Domain() == domain {
			return s.Broker()
		}
	}
	t.Fatalf("no slot for domain %q", domain)
	return nil
}
