package cluster

import (
	"errors"
	"fmt"
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

// TestFrontDefaultPolicyNames pins the name the one placement prints as.
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
// capacity the front's walk lands the admission on another member, and
// lifecycle calls follow the offer to the owning broker.
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
	home := front.slots[homeIdx]
	other := front.slots[1-homeIdx]
	fill(t, home)

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

// threeSlotFront builds a 3-member front and a client whose ring order
// is not slot order, so a walk along the ring and a fallback in slot
// order pick different members.
func threeSlotFront(t *testing.T) (front *Front, client string, order []int) {
	t.Helper()
	front, err := New(Config{},
		NewSlot(member(t, "node-a", 20)), NewSlot(member(t, "node-b", 20)), NewSlot(member(t, "node-c", 20)))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		client = fmt.Sprintf("ring-client-%d", i)
		order = front.route(client)
		// In slot order the first fallback is the lowest-numbered slot
		// other than home; pick a client whose ring says otherwise.
		if order[1] > order[2] {
			return front, client, order
		}
	}
	t.Fatal("no client among 100 has a ring order that differs from slot order")
	return nil, "", nil
}

// fill takes the whole guaranteed partition of s.
func fill(t *testing.T, s *Slot) {
	t.Helper()
	offer, err := s.Broker().RequestService(clusterRequest("filler", 12))
	if err != nil {
		t.Fatalf("filling %s: %v", s.Domain(), err)
	}
	if err := s.Broker().Accept(offer.SLA.ID); err != nil {
		t.Fatal(err)
	}
}

// TestFrontFallbackFollowsRing: when the home slot is full the front
// asks the ring's next slot and stops there — the third slot is never
// asked, so it has handed out no SLA ID.
func TestFrontFallbackFollowsRing(t *testing.T) {
	front, client, order := threeSlotFront(t)
	slots := front.slots
	fill(t, slots[order[0]])

	offer, err := front.RequestService(clusterRequest(client, 10))
	if err != nil {
		t.Fatalf("RequestService: %v", err)
	}
	if want := slots[order[1]].Domain(); !offer.Forwarded || offer.Domain != want {
		t.Fatalf("offer = %+v from %q, want a forwarded offer from the ring's second slot %q",
			offer.SLA.ID, offer.Domain, want)
	}
	third := slots[order[2]]
	probe, err := third.Broker().RequestService(clusterRequest("probe", 1))
	if err != nil {
		t.Fatal(err)
	}
	if want := sla.ID(third.Domain() + "-sla-0001"); probe.SLA.ID != want {
		t.Fatalf("third slot's next SLA ID = %s, want %s: the walk asked it", probe.SLA.ID, want)
	}
}

// TestFrontWalksPastCrashedSlot: a member whose broker died refuses
// with core.ErrClosed. That refusal is
// not the home slot's, so the walk moves on to the ring's third slot,
// which has room, instead of failing the client.
func TestFrontWalksPastCrashedSlot(t *testing.T) {
	front, client, order := threeSlotFront(t)
	slots := front.slots
	fill(t, slots[order[0]])
	slots[order[1]].Broker().Crash()

	offer, err := front.RequestService(clusterRequest(client, 10))
	if err != nil {
		t.Fatalf("RequestService with the ring's second slot crashed: %v", err)
	}
	if want := slots[order[2]].Domain(); offer.Domain != want || !offer.Forwarded {
		t.Fatalf("offer from %q (forwarded %v), want %q", offer.Domain, offer.Forwarded, want)
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
	for _, s := range f.slots {
		if s.Domain() == domain {
			return s.Broker()
		}
	}
	t.Fatalf("no slot for domain %q", domain)
	return nil
}
