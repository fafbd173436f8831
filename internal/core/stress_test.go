package core_test

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gqosm/internal/core"
	"gqosm/internal/invariant"
	"gqosm/internal/resource"
	"gqosm/internal/sim"
	"gqosm/internal/sla"
	"gqosm/internal/stack"
)

// This file is the concurrency-correctness suite for the admission
// pipeline: goroutine clients hammer a shared broker through the full
// lifecycle while the invariant oracle watches for lost or double-spent
// capacity. Run with -race; the schedules are deterministic per client
// (sim.RunParallel) or tight enough to hit the historical races
// (Accept vs offer expiry, Terminate vs re-grant) in a few thousand
// iterations.

func stressCluster(t testing.TB) *sim.Cluster {
	t.Helper()
	c, err := sim.NewCluster(stack.Config{Plan: sim.DefaultParallelPlan()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

// TestParallelLifecycleStress10K is the acceptance run: 8 clients, 10k
// operations, invariant.CheckAll at all 10 quiesce points plus the final
// drain, and exact capacity restoration at the end.
func TestParallelLifecycleStress10K(t *testing.T) {
	if testing.Short() {
		t.Skip("10k-op stress skipped in -short mode")
	}
	res, err := sim.RunParallel(sim.StressConfig{
		Clients: 8, Ops: 10000, Phases: 10, Seed: 1955,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed() {
		t.Fatalf("oracle: %+v", res.Oracle)
	}
	if res.Oracle.Checks != 11 {
		t.Fatalf("checks = %d, want 11", res.Oracle.Checks)
	}
	if res.Outcome.Admitted == 0 || res.Outcome.Terminated == 0 {
		t.Fatalf("degenerate run: %+v", res.Outcome.Tally)
	}
}

// TestConcurrentAdmissionNoDoubleSpend churns request/accept/terminate
// cycles from 8 goroutines with no clock movement, then verifies the
// guaranteed partition drains back to exactly the configured plan — with
// RequestService, which admits inline when uncontended and otherwise
// enqueues and races to lead or ride another caller's flush, and with
// Submit + FlushIntake, where every goroutine's flush drains whatever the
// others queued.
func TestConcurrentAdmissionNoDoubleSpend(t *testing.T) {
	t.Run("inline", func(t *testing.T) {
		churnAdmissions(t, stressCluster(t), (*core.Broker).RequestService)
	})
	t.Run("queued", func(t *testing.T) {
		churnAdmissions(t, stressCluster(t), func(b *core.Broker, req core.Request) (*core.Offer, error) {
			tk, err := b.Submit(req)
			if err != nil {
				return nil, err
			}
			b.FlushIntake()
			return tk.Wait()
		})
	})
}

func churnAdmissions(t *testing.T, c *sim.Cluster, request func(*core.Broker, core.Request) (*core.Offer, error)) {
	b := c.Broker
	now := c.Clock.Now()

	const goroutines = 8
	const cycles = 200
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < cycles; i++ {
				offer, err := request(b, core.Request{
					Service: "simulation",
					Client:  fmt.Sprintf("spend-%d-%d", g, i),
					Class:   sla.ClassGuaranteed,
					Spec:    sla.NewSpec(sla.Exact(resource.CPU, float64(1+g%4))),
					Start:   now,
					End:     now.Add(2 * time.Hour),
				})
				if err != nil {
					continue // partition full right now; other goroutines hold it
				}
				if err := b.Accept(offer.SLA.ID); err != nil {
					continue
				}
				_ = b.Terminate(offer.SLA.ID, "cycle done")
			}
		}(g)
	}
	wg.Wait()

	if err := invariant.CheckAll(b, c.Clock.Now(), c.Pool); err != nil {
		t.Fatal(err)
	}
	if err := b.CheckLiveSet(); err != nil {
		t.Fatal(err)
	}
	if err := invariant.CheckIntake(b); err != nil {
		t.Fatal(err)
	}
	alloc := b.Allocator()
	if users := alloc.GuaranteedUsers(); len(users) != 0 {
		t.Fatalf("grants leaked after churn: %v", users)
	}
	plan := alloc.Plan()
	if got := alloc.AvailableGuaranteed(); !got.Equal(plan.Guaranteed) {
		t.Fatalf("guaranteed headroom %v after churn, want %v", got, plan.Guaranteed)
	}
}

// TestConcurrentAcceptVsExpiry races Accept calls against the confirm
// window elapsing. Whichever side wins, the end state must be coherent:
// Established sessions hold their grant, Terminated ones hold none.
func TestConcurrentAcceptVsExpiry(t *testing.T) {
	c := stressCluster(t)
	b := c.Broker

	const rounds = 50
	for round := 0; round < rounds; round++ {
		now := c.Clock.Now()
		offer, err := b.RequestService(core.Request{
			Service: "simulation",
			Client:  fmt.Sprintf("racer-%d", round),
			Class:   sla.ClassGuaranteed,
			Spec:    sla.NewSpec(sla.Exact(resource.CPU, 2)),
			Start:   now,
			End:     now.Add(3 * time.Hour),
		})
		if err != nil {
			t.Fatalf("round %d: request: %v", round, err)
		}
		id := offer.SLA.ID

		var wg sync.WaitGroup
		var acceptErr error
		wg.Add(2)
		go func() {
			defer wg.Done()
			acceptErr = b.Accept(id)
		}()
		go func() {
			defer wg.Done()
			c.Clock.Advance(2 * time.Hour) // past the confirm window
			b.ExpireDue()
		}()
		wg.Wait()

		doc, err := b.Session(id)
		if err != nil {
			t.Fatalf("round %d: session: %v", round, err)
		}
		_, held := b.Allocator().GuaranteedAllocation(string(id))
		switch {
		case acceptErr == nil:
			// Accept won: the session is live and must hold its grant;
			// the expiry sweep must NOT have torn it down.
			if doc.State.Terminal() {
				t.Fatalf("round %d: accepted session was expired to %s", round, doc.State)
			}
			if !held {
				t.Fatalf("round %d: established session lost its grant", round)
			}
			if err := b.Terminate(id, "round done"); err != nil {
				t.Fatalf("round %d: terminate: %v", round, err)
			}
		default:
			// Expiry won: the offer is gone and no capacity is retained.
			if !doc.State.Terminal() {
				t.Fatalf("round %d: accept failed (%v) but session is %s", round, acceptErr, doc.State)
			}
			if held {
				t.Fatalf("round %d: expired offer still holds capacity", round)
			}
		}
		if err := invariant.CheckAll(b, c.Clock.Now(), c.Pool); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if err := b.CheckLiveSet(); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
	}
}

// admissionCycle runs one request/reject pair — the full admission path
// (discovery, Algorithm-1 allocation, pricing, GARA reservation) followed
// by an immediate release so capacity never exhausts across iterations.
func admissionCycle(c *sim.Cluster, client string) error {
	now := c.Clock.Now()
	offer, err := c.Broker.RequestService(core.Request{
		Service: "simulation",
		Client:  client,
		Class:   sla.ClassGuaranteed,
		Spec:    sla.NewSpec(sla.Exact(resource.CPU, 2)),
		Start:   now,
		End:     now.Add(time.Hour),
	})
	if err != nil {
		return err
	}
	return c.Broker.Reject(offer.SLA.ID)
}

// TestAdmissionCycleAllocGate is the deterministic allocation gate for
// the inline admission route: one request/reject pair — what
// BenchmarkSerialAdmission times — allocates at most
// core.AdmissionCycleAllocGate objects.
func TestAdmissionCycleAllocGate(t *testing.T) {
	if core.RaceEnabled() {
		t.Skip("allocation counts are not exact under -race")
	}
	c := stressCluster(t)
	allocs := testing.AllocsPerRun(200, func() {
		if err := admissionCycle(c, "alloc-gate"); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > core.AdmissionCycleAllocGate {
		t.Errorf("request+reject allocates %.0f objects per cycle, gate is %d", allocs, core.AdmissionCycleAllocGate)
	}
	t.Logf("request+reject on the stress cluster: %.0f allocs", allocs)
}

// BenchmarkSerialAdmission measures the admission path single-threaded.
func BenchmarkSerialAdmission(b *testing.B) {
	c := stressCluster(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := admissionCycle(c, "bench-serial"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkParallelAdmission measures admission contention across
// GOMAXPROCS goroutines sharing one broker.
func BenchmarkParallelAdmission(b *testing.B) {
	c := stressCluster(b)
	var clientID atomic.Int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		client := fmt.Sprintf("bench-par-%d", clientID.Add(1))
		for pb.Next() {
			if err := admissionCycle(c, client); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// TestConcurrentTerminateVsAdaptation races Terminate against the
// failure/recovery sweep that re-grants capacity to degraded sessions —
// the historical terminated-session-regrant race. A terminal session must
// never come out of it holding a grant.
func TestConcurrentTerminateVsAdaptation(t *testing.T) {
	c := stressCluster(t)
	b := c.Broker

	const rounds = 50
	for round := 0; round < rounds; round++ {
		now := c.Clock.Now()
		offer, err := b.RequestService(core.Request{
			Service:           "simulation",
			Client:            fmt.Sprintf("adapt-%d", round),
			Class:             sla.ClassControlledLoad,
			Spec:              sla.NewSpec(sla.Range(resource.CPU, 2, 8)),
			Start:             now,
			End:               now.Add(3 * time.Hour),
			AcceptDegradation: true,
		})
		if err != nil {
			t.Fatalf("round %d: request: %v", round, err)
		}
		id := offer.SLA.ID
		if err := b.Accept(id); err != nil {
			t.Fatalf("round %d: accept: %v", round, err)
		}

		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			b.NotifyFailure(resource.Nodes(10))  // degrade
			b.NotifyFailure(resource.Capacity{}) // recover: re-grants degraded sessions
		}()
		go func() {
			defer wg.Done()
			_ = b.Terminate(id, "racing teardown")
		}()
		wg.Wait()
		_ = b.Terminate(id, "cleanup") // idempotent if the race already ended it

		doc, err := b.Session(id)
		if err != nil {
			t.Fatalf("round %d: session: %v", round, err)
		}
		if got, held := b.Allocator().GuaranteedAllocation(string(id)); doc.State.Terminal() && held {
			t.Fatalf("round %d: terminal session re-granted %v by adaptation sweep", round, got)
		}
		if err := invariant.CheckAll(b, c.Clock.Now(), c.Pool); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if err := b.CheckLiveSet(); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
	}
}
