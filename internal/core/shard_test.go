package core

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"gqosm/internal/clockx"
	"gqosm/internal/gara"
	"gqosm/internal/registry"
	"gqosm/internal/resource"
	"gqosm/internal/sla"
)

// shardedBroker builds a CPU-only broker with the given shard count:
// nodes total capacity split 60/20/20 like domainBroker, but with Shards
// (and optionally EventLogCap) set.
func shardedBroker(t *testing.T, shards int, nodes float64, tweak func(*Config)) *Broker {
	t.Helper()
	clock := clockx.NewManual(t0)
	pool := resource.NewPool("sharded", resource.Nodes(nodes))
	g := gara.NewSystem()
	g.RegisterManager(gara.NewComputeManager(pool))
	reg := registry.New(clock)
	if _, err := reg.Register(registry.Service{
		Name:       "solver",
		Provider:   "sharded",
		Properties: []registry.Property{registry.NumProp("cpu-nodes", nodes)},
	}); err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Domain: "sharded",
		Clock:  clock,
		Plan: CapacityPlan{
			Guaranteed: resource.Nodes(nodes * 0.6),
			Adaptive:   resource.Nodes(nodes * 0.2),
			BestEffort: resource.Nodes(nodes * 0.2),
		},
		Registry:      reg,
		GARA:          g,
		Shards:        shards,
		ConfirmWindow: time.Hour,
	}
	if tweak != nil {
		tweak(&cfg)
	}
	b, err := NewBroker(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(b.Close)
	return b
}

// TestPaperPlace pins the placement ranking: least-loaded first, index
// tie-break, hopeless shards (floor exceeds bound) dropped.
func TestPaperPlace(t *testing.T) {
	load := []float64{0.5, 0.2, 0.2, 0.0}
	bound := []resource.Capacity{resource.Nodes(10), resource.Nodes(10), resource.Nodes(10),
		resource.Nodes(1)} // shard 3 is hopeless for floor 2
	got := rankShards(load, bound, resource.Nodes(2))
	if want := []int{1, 2, 0}; fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("rankShards = %v, want %v", got, want)
	}
}

func TestCapacityPlanSplitExact(t *testing.T) {
	plan := CapacityPlan{
		Guaranteed: resource.Capacity{CPU: 15, MemoryMB: 6144, DiskGB: 121},
		Adaptive:   resource.Capacity{CPU: 7, MemoryMB: 2048, DiskGB: 41},
		BestEffort: resource.Capacity{CPU: 5, MemoryMB: 2049, DiskGB: 40},
	}
	for _, n := range []int{1, 2, 3, 4, 7} {
		parts := plan.Split(n)
		if len(parts) != n {
			t.Fatalf("Split(%d) returned %d parts", n, len(parts))
		}
		var g, a, be resource.Capacity
		for _, p := range parts {
			g = g.Add(p.Guaranteed)
			a = a.Add(p.Adaptive)
			be = be.Add(p.BestEffort)
		}
		// The shares must sum back to the plan exactly — the last shard
		// takes the remainder, so no capacity is lost to rounding.
		if !g.Equal(plan.Guaranteed) || !a.Equal(plan.Adaptive) || !be.Equal(plan.BestEffort) {
			t.Errorf("Split(%d) sums to G=%v A=%v B=%v, want the original plan", n, g, a, be)
		}
	}
}

func TestShardedBrokerSpreadsLoad(t *testing.T) {
	// 4 shards of 6 guaranteed CPU each; four 4-CPU sessions should land
	// on four distinct shards under least-loaded placement.
	b := shardedBroker(t, 4, 40, nil)
	if n := len(b.Allocators()); n != 4 {
		t.Fatalf("%d shards, want 4", n)
	}
	seen := map[int]bool{}
	for i := 0; i < 4; i++ {
		offer, err := b.RequestService(Request{
			Service: "solver",
			Client:  fmt.Sprintf("spread-%d", i),
			Class:   sla.ClassGuaranteed,
			Spec:    sla.NewSpec(sla.Exact(resource.CPU, 4)),
			Start:   t0, End: t5,
		})
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		if err := b.Accept(offer.SLA.ID); err != nil {
			t.Fatalf("accept %d: %v", i, err)
		}
		si := b.shardFor(offer.SLA.ID).index
		if seen[si] {
			t.Errorf("request %d landed on already-loaded shard %d: placement not least-loaded", i, si)
		}
		seen[si] = true
	}
	counts := b.ShardSessionCounts()
	for si, n := range counts {
		if n != 1 {
			t.Errorf("shard %d holds %d sessions, want 1 (%v)", si, n, counts)
		}
	}
	// Every session's grant lives on exactly one allocator.
	for _, doc := range b.Sessions(nil) {
		holders := 0
		for _, a := range b.Allocators() {
			if _, held := a.GuaranteedAllocation(string(doc.ID)); held {
				holders++
			}
		}
		if holders != 1 {
			t.Errorf("session %s held by %d allocators", doc.ID, holders)
		}
	}
}

func TestShardHintAndCrossShardFallback(t *testing.T) {
	// 2 shards of 6 guaranteed CPU each. Pin a 5-CPU session to shard 0
	// via the 1-based hint, then pin a second 5-CPU request there too: it
	// cannot fit and must fall back to shard 1.
	b := shardedBroker(t, 2, 20, nil)
	req := func(client string, cpus float64, hint int) (*Offer, error) {
		return b.RequestService(Request{
			Service: "solver",
			Client:  client,
			Class:   sla.ClassGuaranteed,
			Spec:    sla.NewSpec(sla.Exact(resource.CPU, cpus)),
			Start:   t0, End: t5,
			ShardHint: hint,
		})
	}
	first, err := req("pinned", 5, 1)
	if err != nil {
		t.Fatalf("hinted request: %v", err)
	}
	if si := b.shardFor(first.SLA.ID).index; si != 0 {
		t.Fatalf("hinted session on shard %d, want 0", si)
	}
	second, err := req("fallback", 5, 1)
	if err != nil {
		t.Fatalf("fallback request: %v", err)
	}
	if si := b.shardFor(second.SLA.ID).index; si != 1 {
		t.Errorf("fallback session on shard %d, want 1", si)
	}
	// An out-of-range hint is ignored, not an error.
	third, err := req("bad-hint", 1, 99)
	if err != nil {
		t.Fatalf("out-of-range hint: %v", err)
	}
	if b.shardFor(third.SLA.ID) == nil {
		t.Errorf("bad-hint session unrouted")
	}
}

func TestShardedDeclineWrapsCapacityError(t *testing.T) {
	// No shard's bound (6 guaranteed + 2 adaptive CPU) can hold 10 CPU,
	// so the request is hopeless everywhere; the decline still satisfies
	// errors.Is(…, ErrCannotHonor) like the monolithic broker's.
	b := shardedBroker(t, 2, 20, nil)
	_, err := b.RequestService(Request{
		Service: "solver",
		Client:  "too-big",
		Class:   sla.ClassGuaranteed,
		Spec:    sla.NewSpec(sla.Exact(resource.CPU, 10)),
		Start:   t0, End: t5,
	})
	if !errors.Is(err, ErrCannotHonor) {
		t.Fatalf("err = %v, want ErrCannotHonor", err)
	}
}

func TestSingleShardDefault(t *testing.T) {
	b := shardedBroker(t, 0, 20, nil)
	if allocs := b.Allocators(); len(allocs) != 1 || allocs[0] != b.Allocator() {
		t.Fatal("Allocator()/Allocators() disagree for the single-shard broker")
	}
}

func TestEventRingWraparound(t *testing.T) {
	const cap = 16
	b := shardedBroker(t, 1, 20, func(cfg *Config) { cfg.EventLogCap = cap })

	// Each request logs at least one discovery event; push well past the
	// ring capacity.
	for i := 0; i < 3*cap; i++ {
		_, _ = b.RequestService(Request{
			Service: "solver",
			Client:  fmt.Sprintf("ring-%03d", i),
			Class:   sla.ClassGuaranteed,
			Spec:    sla.NewSpec(sla.Exact(resource.CPU, 200)), // always declined
			Start:   t0, End: t5,
		})
	}
	events := b.Events()
	if len(events) != cap {
		t.Fatalf("len(Events()) = %d, want the ring capacity %d", len(events), cap)
	}
	if b.evTotal <= cap {
		t.Errorf("events ever logged = %d, want > %d after wraparound", b.evTotal, cap)
	}
	// The ring is oldest-first and holds only the newest cap events: the
	// earliest surviving client index must exceed the evicted range, the
	// last event must be the most recent, and timestamps must not go
	// backwards.
	if strings.Contains(events[0].Msg, "ring-000") {
		t.Error("oldest event survived wraparound; eviction broken")
	}
	if !strings.Contains(events[len(events)-1].Msg, fmt.Sprintf("ring-%03d", 3*cap-1)) {
		t.Errorf("last event is not the newest: %q", events[len(events)-1].Msg)
	}
	for i := 1; i < len(events); i++ {
		if events[i].At.Before(events[i-1].At) {
			t.Fatalf("events out of order at %d", i)
		}
	}
}
