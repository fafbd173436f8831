package core

// Hot-path tests and benchmarks: discovery (Find as its oracle, registry
// churn, untyped adverts, no allocation), the allocator's advisory reads,
// Events() snapshot reuse, and the deterministic allocation gates that
// keep the admission path lean.

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"gqosm/internal/clockx"
	"gqosm/internal/gara"
	"gqosm/internal/gram"
	"gqosm/internal/registry"
	"gqosm/internal/resource"
	"gqosm/internal/sla"
	"gqosm/internal/soapx"
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
// requestService: a compute-only GARA over a private pool, no GRAM/NRM
// unless a mod adds them.
func miniBroker(tb testing.TB, clock *clockx.Manual, finder Finder, mods ...func(*Config)) *Broker {
	tb.Helper()
	pool := resource.NewPool("mini", resource.Capacity{CPU: 64, MemoryMB: 65536, DiskGB: 1024, BandwidthMbps: 10000})
	g := gara.NewSystem()
	g.RegisterManager(gara.NewComputeManager(pool))
	cfg := Config{
		Domain: "mini",
		Clock:  clock,
		Plan: CapacityPlan{
			Guaranteed: resource.Capacity{CPU: 40, MemoryMB: 40960, DiskGB: 640, BandwidthMbps: 6000},
			Adaptive:   resource.Capacity{CPU: 12, MemoryMB: 12288, DiskGB: 192, BandwidthMbps: 2000},
			BestEffort: resource.Capacity{CPU: 12, MemoryMB: 12288, DiskGB: 192, BandwidthMbps: 2000},
		},
		Registry:      finder,
		GARA:          g,
		ConfirmWindow: 2 * time.Minute,
	}
	for _, mod := range mods {
		mod(&cfg)
	}
	b, err := NewBroker(cfg)
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

// TestDiscoverConcurrentMutation hammers discover from several
// goroutines while the registry churns. The base service has the
// lowest key, so every discover must select it; run under -race this
// also checks First's locking against Register and Deregister.
func TestDiscoverConcurrentMutation(t *testing.T) {
	clock := clockx.NewManual(t0)
	reg := registry.New(clock)
	baseKey, err := reg.Register(registry.Service{Name: "simulation", Provider: "site-a", Properties: simulationProps()})
	if err != nil {
		t.Fatal(err)
	}
	b := miniBroker(t, clock, reg)
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

// findFirst is the reference discovery: the UDDIe find_service query a
// floor stands for (one "ge" filter per positive dimension) through Find,
// and its first match.
func findFirst(t *testing.T, reg *registry.Registry, pattern string, floor resource.Capacity) (registry.Key, bool) {
	t.Helper()
	q := registry.Query{NamePattern: pattern}
	for _, a := range registry.Adverts {
		if v := floor.Get(a.Kind); v > 0 {
			q.Filters = append(q.Filters, registry.Filter{Name: a.Name, Op: registry.OpGe, Value: trimFloat(v)})
		}
	}
	matches, err := reg.Find(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) == 0 {
		return "", false
	}
	return matches[0].Key, true
}

// TestFirstMatchesFind runs one seeded stream of admissions, accepts and
// terminations, with services registered, deregistered and their leases
// lapsing in between. Find is the oracle: at every step discovery selects
// Find's first match for the request's floor, every offer names it, and
// discovery refuses with ErrNoService exactly when Find returns nothing.
func TestFirstMatchesFind(t *testing.T) {
	clock := clockx.NewManual(t0)
	reg := registry.New(clock)
	b := miniBroker(t, clock, reg)
	rng := rand.New(rand.NewSource(11))
	var services []registry.Key
	register := func() {
		svc := registry.Service{Name: "simulation", Provider: "site", Properties: []registry.Property{
			registry.NumProp("cpu-nodes", []float64{2, 4, 8, 26}[rng.Intn(4)]),
			registry.NumProp("memory-mb", 10240),
		}}
		if rng.Intn(3) == 0 {
			svc.LeaseUntil = clock.Now().Add(time.Duration(1+rng.Intn(20)) * time.Second)
		}
		k, err := reg.Register(svc)
		if err != nil {
			t.Fatal(err)
		}
		services = append(services, k)
	}
	for i := 0; i < 3; i++ {
		register()
	}
	// check holds discovery to the oracle for req and returns the key the
	// oracle selects ("" for none).
	check := func(op int, req Request) registry.Key {
		t.Helper()
		floor := req.Spec.Floor()
		want, ok := findFirst(t, reg, req.Service, floor)
		got, err := b.discover(req, floor)
		if !ok {
			if !errors.Is(err, ErrNoService) {
				t.Fatalf("op %d: Find has no match for %v, discover = %q, %v", op, floor, got, err)
			}
			return ""
		}
		if err != nil || got != want {
			t.Fatalf("op %d: discover = %q, %v; Find's first match is %q", op, got, err, want)
		}
		return want
	}

	var offered, live []sla.ID
	selected := map[registry.Key]int{} // offers by the service discovery selected
	noService := 0
	for op := 0; op < 1000; op++ {
		req := miniRequest()
		req.Client = fmt.Sprintf("client-%d", op)
		cpu := []float64{1, 3, 6}[rng.Intn(3)]
		req.Spec = sla.NewSpec(sla.Exact(resource.CPU, cpu), sla.Exact(resource.MemoryMB, 256))
		if rng.Intn(2) == 0 {
			req.Class, req.AcceptDegradation = sla.ClassControlledLoad, true
			req.Spec = sla.NewSpec(sla.Range(resource.CPU, cpu/2, cpu), sla.Exact(resource.MemoryMB, 256))
		}
		want := check(op, req)
		switch r := rng.Intn(20); {
		case r < 8:
			offer, err := b.RequestService(req)
			switch {
			case want == "":
				if !errors.Is(err, ErrNoService) {
					t.Fatalf("op %d: Find has no match, RequestService = %v", op, err)
				}
				noService++
			case err == nil:
				if offer.ServiceKey != want {
					t.Fatalf("op %d: offer of %q, Find's first match is %q", op, offer.ServiceKey, want)
				}
				selected[want]++
				offered = append(offered, offer.SLA.ID)
			}
		case r < 12:
			if id, ok := takeAny(rng, &offered); ok && b.Accept(id) == nil {
				live = append(live, id)
			}
		case r < 16:
			if id, ok := takeAny(rng, &live); ok {
				_ = b.Terminate(id, "done")
			}
		case r < 18:
			if len(services) < 6 {
				register()
			}
		case r < 19:
			if k, ok := takeAny(rng, &services); ok {
				_ = reg.Deregister(k) // a sweep may already have removed a lapsed lease
			}
		default:
			clock.Advance(time.Second)
		}
	}
	t.Logf("offers by selected service %v, %d refused for no service", selected, noService)
	if len(selected) < 2 || noService == 0 {
		t.Errorf("stream must select several services and find none at times: %v, %d", selected, noService)
	}
}

// takeAny removes a random element of *s and returns it; ok is false when
// *s is empty.
func takeAny[T any](rng *rand.Rand, s *[]T) (v T, ok bool) {
	if len(*s) == 0 {
		return v, false
	}
	i := rng.Intn(len(*s))
	v = (*s)[i]
	*s = append((*s)[:i], (*s)[i+1:]...)
	return v, true
}

// TestDiscoverAllocs is the deterministic allocation gate for discovery:
// one registry query, no allocation.
func TestDiscoverAllocs(t *testing.T) {
	clock := clockx.NewManual(t0)
	reg := registry.New(clock)
	if _, err := reg.Register(registry.Service{Name: "simulation", Provider: "site-a", Properties: simulationProps()}); err != nil {
		t.Fatal(err)
	}
	b := miniBroker(t, clock, reg)
	req := miniRequest()
	floor := req.Spec.Floor()
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := b.discover(req, floor); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("discovery allocates %.1f objects per call, want 0", allocs)
	}
}

// TestDiscoverUntypedAdvertRefused: save_service stores a property whose
// type attribute is omitted as a String, and a numeric floor is met only
// by a Number. An untyped cpu-nodes of 8 therefore does not meet a floor
// of 10, which a string comparison ("8" >= "10") would admit.
func TestDiscoverUntypedAdvertRefused(t *testing.T) {
	clock := clockx.NewManual(t0)
	reg := registry.New(clock)
	mux := soapx.NewMux()
	reg.Mount(mux)
	save := func(prop string) {
		t.Helper()
		body := `<soap:Envelope xmlns:soap="` + soapx.EnvelopeNS + `"><soap:Body><save_service><Service>` +
			`<Name>simulation</Name><PropertyBag>` + prop + `</PropertyBag></Service></save_service></soap:Body></soap:Envelope>`
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/", strings.NewReader(body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("save_service: %d %s", rec.Code, rec.Body)
		}
	}
	save(`<Property name="cpu-nodes">8</Property>`)
	b := miniBroker(t, clock, reg)
	req := miniRequest()
	req.Spec = sla.NewSpec(sla.Exact(resource.CPU, 10))
	if _, err := b.RequestService(req); !errors.Is(err, ErrNoService) {
		t.Fatalf("floor 10 against an untyped cpu-nodes of 8: %v, want ErrNoService", err)
	}
	save(`<Property name="cpu-nodes" type="number">12</Property>`)
	if _, err := b.RequestService(req); err != nil {
		t.Fatalf("floor 10 against a numeric cpu-nodes of 12: %v", err)
	}
}

// TestAllocatorViewConsistency replays a mutation sequence and, after
// every step, recomputes each advisory read from the authoritative locked
// state. The two must match exactly — each read is computed by the same
// locked helpers, from the same exact guaranteed total, not approximated.
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

// TestAllocatorReadsDuringLifecycle polls the advisory reads — the load
// report, Snapshot, Coverage, AvailableGuaranteed, AvailableBestEffort
// and the /metrics pool gauges built on Snapshot — while sessions are
// requested, accepted and terminated and failed capacity comes and goes.
// Every read takes the allocator's lock: under -race this holds them to
// it, and a read reached while that lock is already held deadlocks here.
func TestAllocatorReadsDuringLifecycle(t *testing.T) {
	clock := clockx.NewManual(t0)
	reg := registry.New(clock)
	if _, err := reg.Register(registry.Service{Name: "simulation", Provider: "site-a", Properties: simulationProps()}); err != nil {
		t.Fatal(err)
	}
	b := miniBroker(t, clock, reg)
	a := b.Allocator()
	establish, guaranteed, controlled := allocGatePopulation(t, b)

	stop := make(chan struct{})
	var readers sync.WaitGroup
	stopReaders := sync.OnceFunc(func() { close(stop); readers.Wait() })
	defer stopReaders()
	for _, read := range []func(){
		func() { _ = b.LoadReport() },
		func() { _, _ = a.Snapshot(), a.Coverage() },
		func() { _, _ = a.AvailableGuaranteed(), a.AvailableBestEffort() },
		func() {
			if err := b.Obs().WritePrometheus(io.Discard); err != nil {
				t.Error(err)
			}
		},
	} {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
					read()
				}
			}
		}()
	}

	for i := range 200 {
		req := guaranteed
		if i%2 == 1 {
			req = controlled
		}
		id := establish(req)
		if i%10 == 0 {
			b.NotifyFailure(resource.Capacity{CPU: float64(i % 30)})
		}
		if err := b.Terminate(id, "done"); err != nil {
			t.Fatal(err)
		}
		clock.Advance(time.Second)
	}
	b.NotifyFailure(resource.Capacity{})
	stopReaders()

	plan := a.Plan()
	if got := a.AvailableGuaranteed(); !got.Equal(plan.Guaranteed) {
		t.Errorf("drained AvailableGuaranteed = %v, want C_G %v", got, plan.Guaranteed)
	}
	if got := a.AvailableBestEffort(); !got.Equal(plan.Total()) {
		t.Errorf("drained AvailableBestEffort = %v, want R %v", got, plan.Total())
	}
	if got := b.LoadReport().Load; got != 0 {
		t.Errorf("drained load factor = %v, want 0", got)
	}
}

// TestPartitionGaugesAllocGate reads the 12 gqosm_partition_utilization
// gauges through the function each one calls, on a broker whose three
// pools all hold demand and part of whose capacity is offline. Every value
// must equal the used fraction computed from the matching Snapshot row,
// and reading all 12 must allocate nothing: each gauge once took a whole
// Snapshot, a 3-row slice, to keep one row.
func TestPartitionGaugesAllocGate(t *testing.T) {
	clock := clockx.NewManual(t0)
	reg := registry.New(clock)
	if _, err := reg.Register(registry.Service{Name: "simulation", Provider: "site-a", Properties: simulationProps()}); err != nil {
		t.Fatal(err)
	}
	b := miniBroker(t, clock, reg)
	establish, guaranteed, _ := allocGatePopulation(t, b)
	for range 40 {
		establish(guaranteed)
	}
	if err := b.BestEffortRequest("student", resource.Capacity{CPU: 30, MemoryMB: 20000}); err != nil {
		t.Fatal(err)
	}
	b.NotifyFailure(resource.Capacity{CPU: 24, MemoryMB: 4096})

	snap := b.Allocator().Snapshot()
	for pool, u := range snap {
		busy := false
		for _, kind := range resource.Kinds {
			want := 0.0
			if total := u.Capacity.Get(kind) - u.Offline.Get(kind); total > resource.Epsilon {
				want = (u.Guaranteed.Get(kind) + u.BestEffort.Get(kind)) / total
			}
			if got := b.partitionUtilization(pool, kind); got != want {
				t.Errorf("pool %s %s: gauge %v, Snapshot row gives %v", u.Pool, kind, got, want)
			}
			busy = busy || want > 0
		}
		if !busy {
			t.Errorf("pool %s reads zero in every dimension: the population does not load it", u.Pool)
		}
	}
	var sum float64
	allocs := testing.AllocsPerRun(100, func() {
		for pool := range snap {
			for _, kind := range resource.Kinds {
				sum += b.partitionUtilization(pool, kind)
			}
		}
	})
	if allocs != 0 {
		t.Errorf("reading the 12 partition gauges allocates %.0f objects, want 0", allocs)
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
	b := miniBroker(t, clock, reg)
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

// ringBroker is a broker for the activity-log tests: a compute-only GARA
// and a ring of logCap events (0: DefEventLogCap).
func ringBroker(t *testing.T, logCap int) *Broker {
	t.Helper()
	pool := resource.NewPool("mini", resource.Capacity{CPU: 4})
	g := gara.NewSystem()
	g.RegisterManager(gara.NewComputeManager(pool))
	b, err := NewBroker(Config{
		Domain:      "mini",
		Clock:       clockx.NewManual(t0),
		Plan:        CapacityPlan{Guaranteed: resource.Capacity{CPU: 4}},
		GARA:        g,
		EventLogCap: logCap,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(b.Close)
	return b
}

// TestEventsRingWrapSnapshot checks snapshot correctness across ring
// eviction: oldest-first order, bounded length, accurate total.
func TestEventsRingWrapSnapshot(t *testing.T) {
	b := ringBroker(t, 4)
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

// TestEventsTextBlockTurnover logs through one reused buffer, as every
// call site does, across text-block boundaries: a line that exactly fills
// a block, a line longer than a whole block, and many short lines over
// several blocks with snapshots taken in between. Every Msg read along
// the way must still read the same after later writes and evictions.
func TestEventsTextBlockTurnover(t *testing.T) {
	b := ringBroker(t, 4)
	var buf []byte
	var want []string
	var snaps [][]Event // one Events() after each line
	logN := func(n int) {
		t.Helper()
		tag := fmt.Sprintf("line %d:", len(want))
		if n < len(tag) {
			t.Fatalf("line of %d bytes cannot hold its tag %q", n, tag)
		}
		buf = append(append(buf[:0], tag...), strings.Repeat("x", n-len(tag))...)
		want = append(want, string(buf))
		b.logLine("test", "", buf)
		for i := range buf {
			buf[i] = '#' // the caller's buffer is reused; the log holds a copy
		}
		snaps = append(snaps, b.Events())
	}

	logN(60)
	logN(b.evText.Cap() - b.evText.Len())
	if b.evText.Len() != b.evText.Cap() {
		t.Fatalf("exact-fit line left %d of %d bytes free", b.evText.Cap()-b.evText.Len(), b.evText.Cap())
	}
	logN(evTextBlock + 100)
	if b.evText.Len() != evTextBlock+100 {
		t.Fatalf("oversized line shares its block: block holds %d bytes", b.evText.Len())
	}
	blocks := 0
	for i := 0; blocks < 4; i++ {
		before := b.evText.Len()
		logN(40 + i%23)
		if b.evText.Len() < before {
			blocks++
		}
	}

	for i, snap := range snaps {
		first := i + 1 - len(snap) // snapshot i was taken after line i
		for j, e := range snap {
			if e.Msg != want[first+j] {
				t.Fatalf("snapshot %d entry %d = %.40q, want %.40q", i, j, e.Msg, want[first+j])
			}
		}
	}
	ev := b.Events()
	if len(ev) != 4 {
		t.Fatalf("len = %d, want 4", len(ev))
	}
	for i, e := range ev {
		if w := want[len(want)-4+i]; e.Msg != w {
			t.Errorf("ev[%d].Msg = %.40q, want %.40q", i, e.Msg, w)
		}
	}
	if b.evTotal != int64(len(want)) {
		t.Errorf("events ever logged = %d, want %d", b.evTotal, len(want))
	}
}

// TestLogLineAllocGate holds appending a line to the activity log to no
// allocation: the text goes into the current shared block, and a fresh
// block every evTextBlock bytes amortises below one per line.
func TestLogLineAllocGate(t *testing.T) {
	if RaceEnabled() {
		t.Skip("allocation counts are not exact under -race")
	}
	b := ringBroker(t, 0)
	line := []byte(strings.Repeat("x", 60))
	const gate = 0 // measured 0 (go1.24); 1 while each line was its own string
	if allocs := testing.AllocsPerRun(4*evTextBlock/len(line), func() {
		b.logLine("test", "", line)
	}); allocs > gate {
		t.Errorf("logLine of a %d-byte line allocates %.0f objects, gate is %d", len(line), allocs, gate)
	}
}

// allocGatePopulation is what the release- and adaptation-path gates fill
// a miniBroker with: an establish helper and the two session shapes,
// quarter-node guaranteed and half-to-one-node controlled-load.
func allocGatePopulation(t testing.TB, b *Broker) (establish func(Request) sla.ID, guaranteed, controlled Request) {
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
// afterRelease and its optimizer pass. At 64 live sessions, 16 of them
// controlled-load, that pass rebuilt every service's level map on every
// iteration of its outer loop and cost about 4 000 objects per Terminate;
// the candidate scan brought it to 54, of which 49 were the pass's spec
// clones and solve buffers. The pass now shares the copy-on-write specs
// and solves in a pooled workspace (TestRunOptimizerAllocGate), which
// leaves teardown. Here everyone is at best quality, so the pass skips
// its solve (DESIGN.md §3.3); the count was the same while it solved.
func TestTerminateAllocGate(t *testing.T) {
	if RaceEnabled() {
		t.Skip("allocation counts are not exact under -race")
	}
	clock := clockx.NewManual(t0)
	reg := registry.New(clock)
	if _, err := reg.Register(registry.Service{Name: "simulation", Provider: "site-a", Properties: simulationProps()}); err != nil {
		t.Fatal(err)
	}
	b := miniBroker(t, clock, reg)
	establish, guaranteed, controlled := allocGatePopulation(t, b)

	const runs, gate = 20, 0 // measured 0 (go1.24); 1 while each RM call allocated a closure, 2 while each activity-log line was its own string, 3 while GARA's Cancel appended its (manager, token) pairs, 4 while every release published the allocator's read view, 5 while the clearing line went through fmt, 54 with per-pass clones, 3207 with the old Greedy
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

// TestLifecycleAllocGate holds one whole session to a count: RequestService,
// Accept, Invoke through GRAM and Terminate, at 64 live sessions (16 of
// them controlled-load, so every Terminate's optimizer pass has sessions
// to consider). Every string the broker builds per session — the SLA ID,
// the reservation and job RSL, the GARA handle and GRAM job ID, the
// activity-log lines — is appended, not printed through fmt.
func TestLifecycleAllocGate(t *testing.T) {
	if RaceEnabled() {
		t.Skip("allocation counts are not exact under -race")
	}
	clock := clockx.NewManual(t0)
	reg := registry.New(clock)
	if _, err := reg.Register(registry.Service{Name: "simulation", Provider: "site-a", Properties: simulationProps()}); err != nil {
		t.Fatal(err)
	}
	gramM := gram.NewManager(clock)
	t.Cleanup(gramM.Close)
	b := miniBroker(t, clock, reg, func(cfg *Config) { cfg.GRAM = gramM })
	establish, guaranteed, controlled := allocGatePopulation(t, b)
	for i := 0; i < 16; i++ {
		establish(controlled)
	}
	for i := 0; i < 48; i++ {
		establish(guaranteed)
	}

	const gate = 22 // measured 22 (go1.24); 27 while each RM call allocated a closure, 32 while each activity-log line was its own string, 37 while GARA kept a reservation's parts in a map and a slice per tag, 40 while sla.Spec kept its parameters in a map, 42 while every grant and release published the allocator's read view, 49 while the job RSL carried the SLA ID, 63 while the activity-log lines went through fmt, 89 while the IDs and RSL did too
	allocs := testing.AllocsPerRun(50, func() {
		id := establish(guaranteed)
		if _, err := b.Invoke(id); err != nil {
			t.Fatal(err)
		}
		if err := b.Terminate(id, "done"); err != nil {
			t.Fatal(err)
		}
	})
	if n := b.met.terminated.Value(); n != 51 {
		t.Fatalf("terminated %d sessions, want the 51 of the runs", n)
	}
	if allocs > gate {
		t.Errorf("one session's lifecycle at 64 live sessions allocates %.0f objects, gate is %d", allocs, gate)
	}
	t.Logf("request + accept + invoke + terminate at 64 live sessions: %.0f allocs", allocs)
}

// TestInvokeAllocGate holds one Invoke to a count on a repeated shape:
// sessions of one service and window submit the same job RSL, so GRAM's
// parse is a rsl.ParseCached hit. While the job RSL carried the SLA ID as
// its label, every Invoke missed the cache, ran the parser and interned
// a spec nothing asked for again.
func TestInvokeAllocGate(t *testing.T) {
	if RaceEnabled() {
		t.Skip("allocation counts are not exact under -race")
	}
	clock := clockx.NewManual(t0)
	reg := registry.New(clock)
	if _, err := reg.Register(registry.Service{Name: "simulation", Provider: "site-a", Properties: simulationProps()}); err != nil {
		t.Fatal(err)
	}
	gramM := gram.NewManager(clock)
	t.Cleanup(gramM.Close)
	b := miniBroker(t, clock, reg, func(cfg *Config) { cfg.GRAM = gramM })
	establish, guaranteed, _ := allocGatePopulation(t, b)
	const runs = 50
	var ids []sla.ID
	for range runs + 1 { // AllocsPerRun warms up with one extra call
		ids = append(ids, establish(guaranteed))
	}

	const gate = 5 // measured 5 (go1.24); 6 while the bind allocated a closure, 7 while each activity-log line was its own string, 14 while the job RSL carried the SLA ID
	allocs := testing.AllocsPerRun(runs, func() {
		id := ids[0]
		ids = ids[1:]
		if _, err := b.Invoke(id); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > gate {
		t.Errorf("Invoke on a repeated job shape allocates %.0f objects, gate is %d", allocs, gate)
	}
	t.Logf("Invoke on a repeated job shape: %.0f allocs", allocs)
}

// TestRunOptimizerAllocGate holds the §5.3 pass to a constant: it shares
// each controlled-load session's copy-on-write spec instead of cloning it,
// and solves in a workspace taken from optPool, so a warm pass allocates
// the same at 16 and at 64 controlled-load sessions — nothing per service.
// Below best, one session short of capacity, every pass runs the solve;
// at best, every pass takes the early exit.
func TestRunOptimizerAllocGate(t *testing.T) {
	if RaceEnabled() {
		t.Skip("allocation counts are not exact under -race")
	}
	const gate = 0 // measured 0 (go1.24); a pool refill after a GC amortises below 1 over 50 runs
	for _, row := range []struct {
		name  string
		solve bool
	}{{"below-best", true}, {"at-best", false}} {
		t.Run(row.name, func(t *testing.T) {
			var counts []float64
			for _, n := range []int{16, 64} {
				b, establish, guaranteed, controlled := optimizerBroker(t)
				// 64 at best (half a node) fit the 40-node guaranteed partition.
				controlled.Spec = sla.NewSpec(sla.Range(resource.CPU, 0.25, 0.5), sla.Exact(resource.MemoryMB, 128))
				for i := 0; i < n-1; i++ {
					establish(controlled)
				}
				if row.solve { // the last session gets the 0.3 nodes left
					ballast(b, establish, guaranteed, 0.3)
				}
				establish(controlled)
				solves := b.met.optimizerSolves.Value()
				allocs := testing.AllocsPerRun(50, func() {
					out, err := b.RunOptimizer()
					if err != nil || out.Considered != n || out.Changed != 0 {
						t.Fatalf("pass over %d sessions: %+v, %v", n, out, err)
					}
				})
				if solved := b.met.optimizerSolves.Value() > solves; solved != row.solve {
					t.Fatalf("passes over %d sessions ran the solve: %v, want %v", n, solved, row.solve)
				}
				if allocs > gate {
					t.Errorf("RunOptimizer over %d controlled-load sessions allocates %.0f objects, gate is %d", n, allocs, gate)
				}
				t.Logf("RunOptimizer over %d controlled-load sessions: %.0f allocs", n, allocs)
				counts = append(counts, allocs)
			}
			if counts[0] != counts[1] {
				t.Errorf("allocations at 16 / 64 controlled-load sessions = %v, want one constant", counts)
			}
		})
	}
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
	b := miniBroker(t, clock, reg)
	establish, guaranteed, controlled := allocGatePopulation(t, b)
	id := establish(controlled)
	for i := 0; i < 15; i++ {
		establish(guaranteed)
	}

	const gate = 2 // measured 2 (go1.24); 4 while each modify allocated a closure, 6 while each activity-log line was its own string, 8 while GARA's Modify appended its parts and looked them up in a map, 10 while every grant published the allocator's read view, 18 while the move line went through fmt, 30 while Capacity.String did too
	allocs := testing.AllocsPerRun(50, func() {
		if err := b.degradeToFloor(id); err != nil {
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

// TestNoopRestoreAllocGate is the restore pass's common case when
// capacity is short: a degraded session is asked back up, Algorithm 1
// hands it the floor it already holds, and the move is not made. That
// changes nothing, so it allocates nothing — no RSL, no RM call, no
// journal record, no rebalance.
func TestNoopRestoreAllocGate(t *testing.T) {
	if RaceEnabled() {
		t.Skip("allocation counts are not exact under -race")
	}
	clock := clockx.NewManual(t0)
	reg := registry.New(clock)
	if _, err := reg.Register(registry.Service{Name: "simulation", Provider: "site-a", Properties: simulationProps()}); err != nil {
		t.Fatal(err)
	}
	b := miniBroker(t, clock, reg)
	establish, guaranteed, controlled := allocGatePopulation(t, b)
	id := establish(controlled)
	for i := 0; i < 13; i++ {
		establish(guaranteed)
	}
	if err := b.degradeToFloor(id); err != nil {
		t.Fatal(err)
	}
	// Two more sessions take the rest of C_G's 40 nodes.
	full := guaranteed
	full.Spec = sla.NewSpec(sla.Exact(resource.CPU, (40-13*0.25-0.5)/2), sla.Exact(resource.MemoryMB, 128))
	establish(full)
	establish(full)

	allocs := testing.AllocsPerRun(50, func() {
		if err := b.restore(id); !errors.Is(err, errShortfall) {
			t.Fatalf("restore = %v, want the shortfall", err)
		}
	})
	if doc, _ := b.Session(id); doc.Allocated.CPU != 0.5 || b.met.restored.Value() != 0 {
		t.Fatalf("no-op restore moved the session to %v", doc.Allocated)
	}
	if allocs != 0 {
		t.Errorf("no-op restore at 16 live sessions allocates %.0f objects, want 0", allocs)
	}
}

// TestRefusalAllocGate holds an Algorithm-1 refusal to the one typed
// error it returns: a guaranteed floor that does not fit and a best-effort
// request over the borrowable capacity each cost one allocation, and keep
// their numbers, not their text.
func TestRefusalAllocGate(t *testing.T) {
	if RaceEnabled() {
		t.Skip("allocation counts are not exact under -race")
	}
	a, err := NewAllocator(CapacityPlan{
		Guaranteed: resource.Capacity{CPU: 10, MemoryMB: 4096},
		Adaptive:   resource.Capacity{CPU: 4, MemoryMB: 1024},
		BestEffort: resource.Capacity{CPU: 2, MemoryMB: 512},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.AllocateGuaranteed("held", resource.Capacity{CPU: 8}, resource.Capacity{CPU: 8}); err != nil {
		t.Fatal(err)
	}
	// 6 nodes leave the held 8 over C_G; 12 exceed C_B plus the idle
	// adaptive and guaranteed capacity best-effort may borrow.
	big, bigger := resource.Capacity{CPU: 6, MemoryMB: 512}, resource.Capacity{CPU: 12}
	for _, tc := range []struct {
		name   string
		refuse func() error
		want   error
	}{
		{"guaranteed", func() error { _, err := a.AllocateGuaranteed("new", big, big); return err }, ErrCannotHonor},
		{"best-effort", func() error { return a.AllocateBestEffort("be", bigger) }, ErrBestEffortFull},
	} {
		const gate = 1 // measured 1 (go1.24); 7 guaranteed and 6 best-effort while the refusal was an fmt.Errorf
		allocs := testing.AllocsPerRun(100, func() {
			if err := tc.refuse(); !errors.Is(err, tc.want) {
				t.Fatalf("%s refusal = %v, want %v", tc.name, err, tc.want)
			}
		})
		if allocs > gate {
			t.Errorf("a %s refusal allocates %.0f objects, gate is %d", tc.name, allocs, gate)
		}
		t.Logf("a %s refusal: %.0f allocs", tc.name, allocs)
	}
}

func BenchmarkDiscovery(b *testing.B) {
	clock := clockx.NewManual(t0)
	reg := registry.New(clock)
	if _, err := reg.Register(registry.Service{Name: "simulation", Provider: "site-a", Properties: simulationProps()}); err != nil {
		b.Fatal(err)
	}
	br := miniBroker(b, clock, reg)
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
