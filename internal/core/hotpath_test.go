package core

// Hot-path tests and benchmarks: the discovery cache (hits, generation
// invalidation, lease expiry, FIFO eviction, error passthrough), the
// lock-free allocator view, Events() snapshot reuse, and the
// deterministic allocation gates that keep the admission path lean.

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"gqosm/internal/clockx"
	"gqosm/internal/gara"
	"gqosm/internal/registry"
	"gqosm/internal/resource"
	"gqosm/internal/sla"
)

// simulationProps is the property set every test service advertises.
func simulationProps() []registry.Property {
	return []registry.Property{
		registry.NumProp("cpu-nodes", 26),
		registry.NumProp("memory-mb", 10240),
		registry.NumProp("disk-gb", 200),
		registry.NumProp("bandwidth-mbps", 1000),
	}
}

// miniBroker builds the smallest broker that can run discover and
// requestService: a compute-only GARA over a private pool, no GRAM/NRM.
func miniBroker(tb testing.TB, clock *clockx.Manual, finder Finder, disable bool) *Broker {
	tb.Helper()
	pool := resource.NewPool("mini", resource.Capacity{CPU: 64, MemoryMB: 65536, DiskGB: 1024, BandwidthMbps: 10000})
	g := gara.NewSystem()
	g.RegisterManager(gara.NewComputeManager(pool))
	b, err := NewBroker(Config{
		Domain: "mini",
		Clock:  clock,
		Plan: CapacityPlan{
			Guaranteed: resource.Capacity{CPU: 40, MemoryMB: 40960, DiskGB: 640, BandwidthMbps: 6000},
			Adaptive:   resource.Capacity{CPU: 12, MemoryMB: 12288, DiskGB: 192, BandwidthMbps: 2000},
			BestEffort: resource.Capacity{CPU: 12, MemoryMB: 12288, DiskGB: 192, BandwidthMbps: 2000},
		},
		Registry:      finder,
		GARA:          g,
		DisableCaches: disable,
		ConfirmWindow: 2 * time.Minute,
	})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(b.Close)
	return b
}

// miniRequest is a compute-only guaranteed request against the
// "simulation" service.
func miniRequest() Request {
	return Request{
		Service: "simulation",
		Client:  "hotpath-client",
		Class:   sla.ClassGuaranteed,
		Spec: sla.NewSpec(
			sla.Exact(resource.CPU, 2),
			sla.Exact(resource.MemoryMB, 512),
		),
		Start: t0,
		End:   t5,
	}
}

func TestDiscoverCacheHit(t *testing.T) {
	clock := clockx.NewManual(t0)
	reg := registry.New(clock)
	key, err := reg.Register(registry.Service{Name: "simulation", Provider: "site-a", Properties: simulationProps()})
	if err != nil {
		t.Fatal(err)
	}
	b := miniBroker(t, clock, reg, false)
	if b.dcache == nil {
		t.Fatal("discovery cache not engaged for the in-process registry")
	}
	req := miniRequest()
	floor := req.Spec.Floor()

	for i := 0; i < 3; i++ {
		got, err := b.discover(req, floor)
		if err != nil {
			t.Fatalf("discover %d: %v", i, err)
		}
		if got != key {
			t.Fatalf("discover %d returned %q, want %q", i, got, key)
		}
	}
	if m := b.dcache.misses.Value(); m != 1 {
		t.Errorf("misses = %d, want 1 (only the first call fills)", m)
	}
	if h := b.dcache.hits.Value(); h != 2 {
		t.Errorf("hits = %d, want 2", h)
	}
}

func TestDiscoverCacheDisabled(t *testing.T) {
	clock := clockx.NewManual(t0)
	reg := registry.New(clock)
	if _, err := reg.Register(registry.Service{Name: "simulation", Provider: "site-a", Properties: simulationProps()}); err != nil {
		t.Fatal(err)
	}
	b := miniBroker(t, clock, reg, true)
	if b.dcache != nil {
		t.Fatal("DisableCaches did not disable the discovery cache")
	}
	if _, err := b.discover(miniRequest(), miniRequest().Spec.Floor()); err != nil {
		t.Fatal(err)
	}
}

// TestDiscoverCacheMutationInvalidation deregisters the cached service
// and registers a replacement: the very next discover must return the
// replacement's key, never the stale one.
func TestDiscoverCacheMutationInvalidation(t *testing.T) {
	clock := clockx.NewManual(t0)
	reg := registry.New(clock)
	oldKey, err := reg.Register(registry.Service{Name: "simulation", Provider: "site-a", Properties: simulationProps()})
	if err != nil {
		t.Fatal(err)
	}
	b := miniBroker(t, clock, reg, false)
	req := miniRequest()
	floor := req.Spec.Floor()

	if got, err := b.discover(req, floor); err != nil || got != oldKey {
		t.Fatalf("warm discover = %q, %v; want %q", got, err, oldKey)
	}
	genBefore := reg.Generation()
	if err := reg.Deregister(oldKey); err != nil {
		t.Fatal(err)
	}
	newKey, err := reg.Register(registry.Service{Name: "simulation", Provider: "site-b", Properties: simulationProps()})
	if err != nil {
		t.Fatal(err)
	}
	if g := reg.Generation(); g <= genBefore {
		t.Fatalf("generation %d not bumped past %d by mutations", g, genBefore)
	}
	got, err := b.discover(req, floor)
	if err != nil {
		t.Fatal(err)
	}
	if got == oldKey {
		t.Fatal("discover returned the deregistered service (stale cache entry)")
	}
	if got != newKey {
		t.Fatalf("discover = %q, want replacement %q", got, newKey)
	}
}

// TestDiscoverCacheLeaseExpiry lets the cached service's lease lapse
// without any registry mutation: the generation is unchanged, but the
// hit must be refused and discovery must fail like an uncached Find.
func TestDiscoverCacheLeaseExpiry(t *testing.T) {
	clock := clockx.NewManual(t0)
	reg := registry.New(clock)
	if _, err := reg.Register(registry.Service{
		Name: "simulation", Provider: "site-a",
		Properties: simulationProps(),
		LeaseUntil: t0.Add(time.Hour),
	}); err != nil {
		t.Fatal(err)
	}
	b := miniBroker(t, clock, reg, false)
	req := miniRequest()
	floor := req.Spec.Floor()

	if _, err := b.discover(req, floor); err != nil {
		t.Fatalf("warm discover: %v", err)
	}
	if _, err := b.discover(req, floor); err != nil {
		t.Fatalf("cached discover: %v", err)
	}
	gen := reg.Generation()
	clock.Advance(2 * time.Hour)
	if g := reg.Generation(); g != gen {
		t.Fatalf("clock advance changed the generation (%d -> %d)", gen, g)
	}
	_, err := b.discover(req, floor)
	if !errors.Is(err, ErrNoService) {
		t.Fatalf("discover after lease expiry = %v, want ErrNoService", err)
	}
	if n := b.dcache.len(); n != 0 {
		// The failed refill must not have cached the empty result; the
		// stale entry may linger but only this key existed.
		t.Logf("cache still holds %d entr(ies) after failed refill", n)
	}
	// The failure is not sticky: re-registering makes discovery succeed.
	if _, err := reg.Register(registry.Service{Name: "simulation", Provider: "site-c", Properties: simulationProps()}); err != nil {
		t.Fatal(err)
	}
	if _, err := b.discover(req, floor); err != nil {
		t.Fatalf("discover after re-register: %v", err)
	}
}

// badFilterFinder injects a malformed numeric filter value ahead of
// every Find, standing in for a corrupted query. It still implements
// Generation, so the cache layer engages.
type badFilterFinder struct{ inner *registry.Registry }

func (f badFilterFinder) Find(q registry.Query) ([]*registry.Service, error) {
	q.Filters = append([]registry.Filter{
		{Name: "cpu-nodes", Op: registry.OpGe, Value: "not-a-number"},
	}, q.Filters...)
	return f.inner.Find(q)
}
func (f badFilterFinder) Generation() uint64 { return f.inner.Generation() }

// TestDiscoverMalformedFilterIdentical is the regression test for the
// query-hoisting bugfix: a malformed filter value must fail with the
// same error on the cached and uncached paths, on every call, and the
// error must never be cached.
func TestDiscoverMalformedFilterIdentical(t *testing.T) {
	clock := clockx.NewManual(t0)
	reg := registry.New(clock)
	if _, err := reg.Register(registry.Service{Name: "simulation", Provider: "site-a", Properties: simulationProps()}); err != nil {
		t.Fatal(err)
	}
	finder := badFilterFinder{inner: reg}
	cached := miniBroker(t, clock, finder, false)
	uncached := miniBroker(t, clock, finder, true)
	if cached.dcache == nil {
		t.Fatal("cache did not engage on the Generation-capable wrapper")
	}
	req := miniRequest()
	floor := req.Spec.Floor()

	_, wantErr := uncached.discover(req, floor)
	if !errors.Is(wantErr, registry.ErrBadProperty) {
		t.Fatalf("uncached discover error = %v, want ErrBadProperty", wantErr)
	}
	for i := 0; i < 2; i++ {
		_, err := cached.discover(req, floor)
		if err == nil {
			t.Fatalf("cached discover %d succeeded, want error", i)
		}
		if !errors.Is(err, registry.ErrBadProperty) {
			t.Fatalf("cached discover %d error = %v, want ErrBadProperty", i, err)
		}
		if err.Error() != wantErr.Error() {
			t.Errorf("cached discover %d error %q differs from uncached %q", i, err, wantErr)
		}
	}
	if n := cached.dcache.len(); n != 0 {
		t.Errorf("error outcome was cached: %d entries", n)
	}
	if h := cached.dcache.hits.Value(); h != 0 {
		t.Errorf("hits = %d, want 0", h)
	}
	if m := cached.dcache.misses.Value(); m != 2 {
		t.Errorf("misses = %d, want 2 (errors fall through every time)", m)
	}
}

// TestDiscoveryCacheFIFOEviction checks that the bounded cache evicts
// oldest-first, deterministically, and counts evictions.
func TestDiscoveryCacheFIFOEviction(t *testing.T) {
	clock := clockx.NewManual(t0)
	reg := registry.New(clock)
	b := miniBroker(t, clock, reg, false)
	c := b.dcache
	c.cap = 2

	entry := func(name string) *discoveryEntry {
		return &discoveryEntry{key: registry.Key(name), name: name, gen: reg.Generation(), epoch: reg.Epoch()}
	}
	k1 := discoveryKey{service: "s1"}
	k2 := discoveryKey{service: "s2"}
	k3 := discoveryKey{service: "s3"}
	c.store(k1, entry("svc-1"))
	c.store(k2, entry("svc-2"))
	c.store(k3, entry("svc-3")) // evicts k1
	if n := c.len(); n != 2 {
		t.Fatalf("len = %d, want 2", n)
	}
	if ev := c.evictions.Value(); ev != 1 {
		t.Errorf("evictions = %d, want 1", ev)
	}
	if _, ok := c.lookup(k1, t0); ok {
		t.Error("k1 survived eviction")
	}
	if key, ok := c.lookup(k2, t0); !ok || key != "svc-2" {
		t.Errorf("k2 lookup = %q, %v", key, ok)
	}
	// Refilling an existing key keeps its FIFO position: k2 is still the
	// oldest, so the next new key evicts it, not k3.
	c.store(k2, entry("svc-2b"))
	c.store(discoveryKey{service: "s4"}, entry("svc-4"))
	if _, ok := c.lookup(k2, t0); ok {
		t.Error("k2 survived; refill must not refresh FIFO position")
	}
	if key, ok := c.lookup(k3, t0); !ok || key != "svc-3" {
		t.Errorf("k3 lookup = %q, %v", key, ok)
	}
}

// TestDiscoverConcurrentMutation hammers discover from several
// goroutines while the registry churns. The base service has the
// lowest key, so every discover — cached or not — must select it;
// run under -race this also proves the cache's synchronization.
func TestDiscoverConcurrentMutation(t *testing.T) {
	clock := clockx.NewManual(t0)
	reg := registry.New(clock)
	baseKey, err := reg.Register(registry.Service{Name: "simulation", Provider: "site-a", Properties: simulationProps()})
	if err != nil {
		t.Fatal(err)
	}
	b := miniBroker(t, clock, reg, false)
	req := miniRequest()
	floor := req.Spec.Floor()

	stop := make(chan struct{})
	var mutators sync.WaitGroup
	mutators.Add(1)
	go func() {
		defer mutators.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			k, err := reg.Register(registry.Service{Name: "simulation", Provider: "churn", Properties: simulationProps()})
			if err != nil {
				t.Error(err)
				return
			}
			if err := reg.Deregister(k); err != nil {
				t.Error(err)
				return
			}
		}
	}()

	var readers sync.WaitGroup
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for i := 0; i < 2000; i++ {
				got, err := b.discover(req, floor)
				if err != nil {
					t.Errorf("discover: %v", err)
					return
				}
				if got != baseKey {
					t.Errorf("discover returned %q, want stable base %q", got, baseKey)
					return
				}
			}
		}()
	}
	readers.Wait()
	close(stop)
	mutators.Wait()

	if got, err := b.discover(req, floor); err != nil || got != baseKey {
		t.Fatalf("final discover = %q, %v; want %q", got, err, baseKey)
	}
}

// TestDiscoverHitAllocs is the deterministic allocation gate for the
// discovery hot path: a cache hit performs no allocations.
func TestDiscoverHitAllocs(t *testing.T) {
	clock := clockx.NewManual(t0)
	reg := registry.New(clock)
	if _, err := reg.Register(registry.Service{Name: "simulation", Provider: "site-a", Properties: simulationProps()}); err != nil {
		t.Fatal(err)
	}
	b := miniBroker(t, clock, reg, false)
	req := miniRequest()
	floor := req.Spec.Floor()
	if _, err := b.discover(req, floor); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := b.discover(req, floor); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("discovery cache hit allocates %.1f objects per call, want 0", allocs)
	}
}

// TestAllocatorViewConsistency replays a mutation sequence and, after
// every step, recomputes each published read value from the
// authoritative locked state. The two must match exactly — the view is
// a full recomputation, not an approximation.
func TestAllocatorViewConsistency(t *testing.T) {
	plan := CapacityPlan{
		Guaranteed: resource.Capacity{CPU: 15, MemoryMB: 6144, DiskGB: 120, BandwidthMbps: 700},
		Adaptive:   resource.Capacity{CPU: 6, MemoryMB: 2048, DiskGB: 40, BandwidthMbps: 200},
		BestEffort: resource.Capacity{CPU: 5, MemoryMB: 2048, DiskGB: 40, BandwidthMbps: 200},
	}
	a, err := NewAllocator(plan)
	if err != nil {
		t.Fatal(err)
	}

	check := func(step string) {
		t.Helper()
		a.mu.Lock()
		gEff := a.effectiveGLocked()
		demand := a.gDemandLocked()
		bound := a.gBoundLocked()
		be := a.beUsedLocked()
		beAvail := a.beAvailableLocked()
		adaptive := a.adaptiveUsedLocked()
		offline := a.offline
		a.mu.Unlock()

		if got := a.Offline(); !got.Equal(offline) {
			t.Errorf("%s: Offline = %v, want %v", step, got, offline)
		}
		if got, want := a.AdmissionBound(), bound; !got.Equal(want) {
			t.Errorf("%s: AdmissionBound = %v, want %v", step, got, want)
		}
		if got, want := a.AvailableGuaranteed(), bound.Sub(demand).ClampMin(resource.Capacity{}); !got.Equal(want) {
			t.Errorf("%s: AvailableGuaranteed = %v, want %v", step, got, want)
		}
		if got, want := a.AvailableBestEffort(), beAvail.Sub(be).ClampMin(resource.Capacity{}); !got.Equal(want) {
			t.Errorf("%s: AvailableBestEffort = %v, want %v", step, got, want)
		}
		load := 0.0
		for _, k := range resource.Kinds {
			if bk := bound.Get(k); bk > resource.Epsilon {
				if f := demand.Get(k) / bk; f > load {
					load = f
				}
			}
		}
		if got := a.LoadFactor(); got != load {
			t.Errorf("%s: LoadFactor = %v, want %v", step, got, load)
		}
		online := plan.Total().Sub(offline)
		used := demand.Add(be)
		var wantU resource.Capacity
		for _, k := range resource.Kinds {
			if online.Get(k) > resource.Epsilon {
				wantU = wantU.With(k, used.Get(k)/online.Get(k))
			}
		}
		if got := a.Utilization(); !got.Equal(wantU) {
			t.Errorf("%s: Utilization = %v, want %v", step, got, wantU)
		}
		snap := a.Snapshot()
		if len(snap) != 3 {
			t.Fatalf("%s: snapshot has %d pools", step, len(snap))
		}
		gSum := snap[0].Guaranteed.Add(snap[1].Guaranteed).Add(snap[2].Guaranteed)
		if want := demand.Min(gEff).Add(adaptive); !gSum.Equal(want) {
			t.Errorf("%s: snapshot guaranteed sum = %v, want %v", step, gSum, want)
		}
		beSum := snap[0].BestEffort.Add(snap[1].BestEffort).Add(snap[2].BestEffort)
		if !beSum.Equal(be) {
			t.Errorf("%s: snapshot best-effort sum = %v, want %v", step, beSum, be)
		}
	}

	check("idle")
	if _, err := a.AllocateGuaranteed("g1", resource.Capacity{CPU: 10, MemoryMB: 2048}, resource.Capacity{CPU: 5, MemoryMB: 1024}); err != nil {
		t.Fatal(err)
	}
	check("after guaranteed grant")
	if err := a.AllocateBestEffort("b1", resource.Capacity{CPU: 8, MemoryMB: 2048}); err != nil {
		t.Fatal(err)
	}
	check("after best-effort grant")
	a.SetOffline(resource.Capacity{CPU: 8, MemoryMB: 1024})
	check("after failure")
	if _, err := a.AllocateGuaranteed("g2", resource.Capacity{CPU: 5, MemoryMB: 2048}, resource.Capacity{CPU: 2, MemoryMB: 512}); err != nil {
		t.Fatal(err)
	}
	check("after second grant under failure")
	a.SetOffline(resource.Capacity{})
	check("after recovery")
	if err := a.ReleaseBestEffort("b1"); err != nil {
		t.Fatal(err)
	}
	check("after best-effort release")
	if err := a.ReleaseGuaranteed("g1"); err != nil {
		t.Fatal(err)
	}
	if err := a.ReleaseGuaranteed("g2"); err != nil {
		t.Fatal(err)
	}
	check("after drain")
	if !a.Utilization().IsZero() {
		t.Errorf("drained allocator utilization = %v, want zero", a.Utilization())
	}
}

// TestAllocatorViewRace runs mutators against lock-free readers; its
// value is under -race, proving the atomic publication is sound.
func TestAllocatorViewRace(t *testing.T) {
	plan := CapacityPlan{
		Guaranteed: resource.Capacity{CPU: 32, MemoryMB: 8192},
		Adaptive:   resource.Capacity{CPU: 8, MemoryMB: 2048},
		BestEffort: resource.Capacity{CPU: 8, MemoryMB: 2048},
	}
	a, err := NewAllocator(plan)
	if err != nil {
		t.Fatal(err)
	}
	var writers sync.WaitGroup
	for w := 0; w < 4; w++ {
		writers.Add(1)
		go func(id int) {
			defer writers.Done()
			user := fmt.Sprintf("user-%d", id)
			req := resource.Capacity{CPU: 2, MemoryMB: 256}
			for i := 0; i < 300; i++ {
				if _, err := a.AllocateGuaranteed(user, req, req); err == nil {
					_ = a.ReleaseGuaranteed(user)
				}
				if err := a.AllocateBestEffort(user, resource.Capacity{CPU: 1}); err == nil {
					_ = a.ReleaseBestEffort(user)
				}
			}
		}(w)
	}
	stop := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				_ = a.Snapshot()
				_ = a.Utilization()
				_ = a.LoadFactor()
				_ = a.AvailableGuaranteed()
				_ = a.AdmissionBound()
				_ = a.AvailableBestEffort()
				_ = a.Coverage()
				_ = a.Offline()
			}
		}()
	}
	writers.Wait()
	close(stop)
	readers.Wait()
	if !a.Utilization().IsZero() {
		t.Errorf("drained allocator utilization = %v, want zero", a.Utilization())
	}
}

// TestEventsSnapshotReuse checks the Events() snapshot contract:
// repeated calls with no new events share one backing array; a new
// event produces a fresh snapshot without disturbing the old one.
func TestEventsSnapshotReuse(t *testing.T) {
	clock := clockx.NewManual(t0)
	reg := registry.New(clock)
	if _, err := reg.Register(registry.Service{Name: "simulation", Provider: "site-a", Properties: simulationProps()}); err != nil {
		t.Fatal(err)
	}
	b := miniBroker(t, clock, reg, false)
	b.logf("test", "", "event %d", 1)
	b.logf("test", "", "event %d", 2)

	e1 := b.Events()
	e2 := b.Events()
	if len(e1) == 0 {
		t.Fatal("no events logged")
	}
	if &e1[0] != &e2[0] {
		t.Error("idle Events() calls rebuilt the snapshot; expected reuse")
	}
	lastMsg := e1[len(e1)-1].Msg

	b.logf("test", "", "event %d", 3)
	e3 := b.Events()
	if len(e3) != len(e1)+1 {
		t.Fatalf("after new event len = %d, want %d", len(e3), len(e1)+1)
	}
	if &e3[0] == &e1[0] {
		t.Error("new event did not produce a fresh snapshot")
	}
	if e1[len(e1)-1].Msg != lastMsg {
		t.Error("old snapshot mutated by later logging")
	}
	if !strings.Contains(e3[len(e3)-1].Msg, "event 3") {
		t.Errorf("latest event = %q", e3[len(e3)-1].Msg)
	}
}

// TestEventsRingWrapSnapshot checks snapshot correctness across ring
// eviction: oldest-first order, bounded length, accurate total.
func TestEventsRingWrapSnapshot(t *testing.T) {
	clock := clockx.NewManual(t0)
	pool := resource.NewPool("mini", resource.Capacity{CPU: 4})
	g := gara.NewSystem()
	g.RegisterManager(gara.NewComputeManager(pool))
	b, err := NewBroker(Config{
		Domain:      "mini",
		Clock:       clock,
		Plan:        CapacityPlan{Guaranteed: resource.Capacity{CPU: 4}},
		GARA:        g,
		EventLogCap: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(b.Close)

	for i := 1; i <= 6; i++ {
		b.logf("test", "", "event %d", i)
		// Each snapshot taken between writes must stay internally
		// consistent even while the ring wraps.
		ev := b.Events()
		if len(ev) > 4 {
			t.Fatalf("snapshot len %d exceeds cap 4", len(ev))
		}
	}
	ev := b.Events()
	if len(ev) != 4 {
		t.Fatalf("len = %d, want 4", len(ev))
	}
	for i, e := range ev {
		want := fmt.Sprintf("event %d", i+3) // events 3..6 survive
		if e.Msg != want {
			t.Errorf("ev[%d].Msg = %q, want %q", i, e.Msg, want)
		}
	}
	if b.evTotal != 6 {
		t.Errorf("events ever logged = %d, want 6", b.evTotal)
	}
}

// allocGatePopulation is what the release- and adaptation-path gates fill
// a miniBroker with: an establish helper and the two session shapes,
// quarter-node guaranteed and half-to-one-node controlled-load.
func allocGatePopulation(t *testing.T, b *Broker) (establish func(Request) sla.ID, guaranteed, controlled Request) {
	establish = func(req Request) sla.ID {
		t.Helper()
		offer, err := b.RequestService(req)
		if err != nil {
			t.Fatal(err)
		}
		if err := b.Accept(offer.SLA.ID); err != nil {
			t.Fatal(err)
		}
		return offer.SLA.ID
	}
	guaranteed = miniRequest()
	guaranteed.Spec = sla.NewSpec(sla.Exact(resource.CPU, 0.25), sla.Exact(resource.MemoryMB, 128))
	controlled = guaranteed
	controlled.Class, controlled.AcceptDegradation = sla.ClassControlledLoad, true
	controlled.Spec = sla.NewSpec(sla.Range(resource.CPU, 0.5, 1), sla.Exact(resource.MemoryMB, 128))
	return establish, guaranteed, controlled
}

// TestTerminateAllocGate holds the release path lean: every Terminate runs
// afterRelease, whose optimizer pass solves the shard's controlled-load
// problem even when (as here, everyone already at best quality) it has
// nothing to apply. At 64 live sessions, 16 of them controlled-load, that
// pass rebuilt every service's level map on every iteration of its outer
// loop and cost about 4 000 objects per Terminate; the candidate scan
// leaves teardown, journaling and 16 spec clones.
func TestTerminateAllocGate(t *testing.T) {
	if RaceEnabled() {
		t.Skip("allocation counts are not exact under -race")
	}
	clock := clockx.NewManual(t0)
	reg := registry.New(clock)
	if _, err := reg.Register(registry.Service{Name: "simulation", Provider: "site-a", Properties: simulationProps()}); err != nil {
		t.Fatal(err)
	}
	b := miniBroker(t, clock, reg, false)
	establish, guaranteed, controlled := allocGatePopulation(t, b)

	const runs, gate = 20, 59 // measured 54 (go1.24); the old Greedy made it 3207
	for i := 0; i < 16; i++ {
		establish(controlled)
	}
	for i := 0; i < 48; i++ {
		establish(guaranteed)
	}
	var victims []sla.ID // the 65th session and up: the floor stays at 64 live
	for i := 0; i < runs+1; i++ {
		victims = append(victims, establish(guaranteed))
	}
	allocs := testing.AllocsPerRun(runs, func() {
		id := victims[0]
		victims = victims[1:]
		if err := b.Terminate(id, "done"); err != nil {
			t.Fatal(err)
		}
	})
	if out, err := b.RunOptimizer(); err != nil || out.Considered != 16 {
		t.Fatalf("optimizer considered %d sessions (err %v), want the 16 controlled-load ones", out.Considered, err)
	}
	if allocs > gate {
		t.Errorf("Terminate at 64 live sessions allocates %.0f objects, gate is %d", allocs, gate)
	}
	t.Logf("Terminate at 64 live sessions: %.0f allocs", allocs)
}

// TestDegradeRestoreAllocGate holds the adaptation path — one scenario-1
// degradation and its scenario-2(a) restoration at 16 live sessions — to
// what reallocate costs (bench/'s overload_adapt spends most of its
// mallocs per session on these).
func TestDegradeRestoreAllocGate(t *testing.T) {
	if RaceEnabled() {
		t.Skip("allocation counts are not exact under -race")
	}
	clock := clockx.NewManual(t0)
	reg := registry.New(clock)
	if _, err := reg.Register(registry.Service{Name: "simulation", Provider: "site-a", Properties: simulationProps()}); err != nil {
		t.Fatal(err)
	}
	b := miniBroker(t, clock, reg, false)
	establish, guaranteed, controlled := allocGatePopulation(t, b)
	id := establish(controlled)
	for i := 0; i < 15; i++ {
		establish(guaranteed)
	}

	const gate = 33 // measured 30 (go1.24)
	allocs := testing.AllocsPerRun(50, func() {
		if err := b.degradeToFloor(b.shardFor(id), id); err != nil {
			t.Fatal(err)
		}
		if err := b.restore(id); err != nil {
			t.Fatal(err)
		}
	})
	if doc, _ := b.Session(id); doc.Allocated.CPU != 1 || b.met.degraded.Value() != b.met.restored.Value() {
		t.Fatalf("cycle did not return the session to its best quality: %v", doc.Allocated)
	}
	if allocs > gate {
		t.Errorf("degrade + restore at 16 live sessions allocates %.0f objects, gate is %d", allocs, gate)
	}
	t.Logf("degrade + restore at 16 live sessions: %.0f allocs", allocs)
}

func BenchmarkDiscovery(b *testing.B) {
	clock := clockx.NewManual(t0)
	reg := registry.New(clock)
	if _, err := reg.Register(registry.Service{Name: "simulation", Provider: "site-a", Properties: simulationProps()}); err != nil {
		b.Fatal(err)
	}
	br := miniBroker(b, clock, reg, false)
	req := miniRequest()
	floor := req.Spec.Floor()
	if _, err := br.discover(req, floor); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := br.discover(req, floor); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDiscoveryUncached(b *testing.B) {
	clock := clockx.NewManual(t0)
	reg := registry.New(clock)
	if _, err := reg.Register(registry.Service{Name: "simulation", Provider: "site-a", Properties: simulationProps()}); err != nil {
		b.Fatal(err)
	}
	br := miniBroker(b, clock, reg, true)
	req := miniRequest()
	floor := req.Spec.Floor()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := br.discover(req, floor); err != nil {
			b.Fatal(err)
		}
	}
}
