package gqosm

import (
	"net/http/httptest"
	"testing"
	"time"

	"gqosm/internal/registry"
	"gqosm/internal/sla"
)

var epoch = time.Date(2003, 6, 16, 9, 0, 0, 0, time.UTC)

func paperStack(t *testing.T) *Stack {
	t.Helper()
	stack, err := NewStack(StackConfig{
		Domain: "site-a",
		Clock:  NewManualClock(epoch),
		Plan: CapacityPlan{
			Guaranteed: Capacity{CPU: 15, MemoryMB: 6144, DiskGB: 120},
			Adaptive:   Capacity{CPU: 6, MemoryMB: 2048, DiskGB: 40},
			BestEffort: Capacity{CPU: 5, MemoryMB: 2048, DiskGB: 40},
		},
		ConfirmWindow: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(stack.Close)
	return stack
}

func TestStackEndToEnd(t *testing.T) {
	stack := paperStack(t)
	offer, err := stack.Broker.RequestService(Request{
		Service: "simulation",
		Client:  "quickstart",
		Class:   ClassGuaranteed,
		Spec:    NewSpec(Exact(CPU, 10), Exact(MemoryMB, 2048), Exact(DiskGB, 15)),
		Start:   epoch,
		End:     epoch.Add(5 * time.Hour),
	})
	if err != nil {
		t.Fatalf("RequestService: %v", err)
	}
	if err := stack.Broker.Accept(offer.SLA.ID); err != nil {
		t.Fatalf("Accept: %v", err)
	}
	job, err := stack.Broker.Invoke(offer.SLA.ID)
	if err != nil {
		t.Fatalf("Invoke: %v", err)
	}
	if job.PID == 0 {
		t.Error("no PID")
	}
	rep, err := stack.Broker.Verify(offer.SLA.ID)
	if err != nil || !rep.Conforms {
		t.Fatalf("Verify: %+v, %v", rep, err)
	}
	if err := stack.Broker.Terminate(offer.SLA.ID, "done"); err != nil {
		t.Fatal(err)
	}
}

func TestStackDefaults(t *testing.T) {
	stack, err := NewStack(StackConfig{Plan: CapacityPlan{Guaranteed: Nodes(10)}})
	if err != nil {
		t.Fatal(err)
	}
	defer stack.Close()
	if stack.NRM != nil {
		t.Error("NRM present without topology")
	}
	// Real clock was injected.
	if stack.Clock == nil {
		t.Fatal("nil clock")
	}
	if _, err := NewStack(StackConfig{}); err == nil {
		t.Error("empty plan accepted")
	}
}

func TestStackWithTopology(t *testing.T) {
	topo := NewTopology()
	if err := topo.AddDomain("site-a", "192.200.168.0/24"); err != nil {
		t.Fatal(err)
	}
	if err := topo.AddDomain("site-b", "135.200.50.0/24"); err != nil {
		t.Fatal(err)
	}
	if err := topo.AddLink("site-a", "site-b", 1000); err != nil {
		t.Fatal(err)
	}
	stack, err := NewStack(StackConfig{
		Clock:    NewManualClock(epoch),
		Plan:     CapacityPlan{Guaranteed: Capacity{CPU: 15, BandwidthMbps: 700}, Adaptive: Capacity{CPU: 6, BandwidthMbps: 200}, BestEffort: Capacity{CPU: 5, BandwidthMbps: 100}},
		Topology: topo,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer stack.Close()
	if stack.NRM == nil {
		t.Fatal("no NRM")
	}
	spec := NewSpec(Exact(BandwidthMbps, 622))
	spec.SourceIP = "135.200.50.101"
	spec.DestIP = "192.200.168.33"
	offer, err := stack.Broker.RequestService(Request{
		Service: "simulation", Client: "db", Class: ClassGuaranteed,
		Spec: spec, Start: epoch, End: epoch.Add(time.Hour),
	})
	if err != nil {
		t.Fatalf("network request: %v", err)
	}
	if err := stack.Broker.Accept(offer.SLA.ID); err != nil {
		t.Fatal(err)
	}
	if len(stack.NRM.Flows()) != 1 {
		t.Error("no flow reserved")
	}
}

func TestStackMountServesBrokerAndRegistry(t *testing.T) {
	stack := paperStack(t)
	srv := httptest.NewServer(stack.Mount())
	defer srv.Close()

	// Broker endpoint works.
	client := NewBrokerClient(srv.URL)
	offer, err := client.RequestService(Request{
		Service: "simulation", Client: "remote", Class: ClassControlledLoad,
		Spec:  NewSpec(Range(CPU, 2, 8)),
		Start: epoch, End: epoch.Add(time.Hour),
	})
	if err != nil {
		t.Fatalf("remote request: %v", err)
	}
	if _, err := client.Act(sla.ID(offer.SLA.SLAID), "accept", ""); err != nil {
		t.Fatalf("remote accept: %v", err)
	}

	// Registry endpoint shares the mux.
	regClient := registry.NewClient(srv.URL)
	found, err := regClient.Find(registry.Query{NamePattern: "simulation"})
	if err != nil || len(found) != 1 {
		t.Fatalf("remote registry find = %v, %v", found, err)
	}
}

func TestStackCustomServices(t *testing.T) {
	stack, err := NewStack(StackConfig{
		Clock: NewManualClock(epoch),
		Plan:  CapacityPlan{Guaranteed: Nodes(10), BestEffort: Nodes(2)},
		Services: []registry.Service{{
			Name:       "renderer",
			Properties: []registry.Property{registry.NumProp("cpu-nodes", 10)},
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer stack.Close()
	if _, err := stack.Broker.RequestService(Request{
		Service: "renderer", Client: "c", Class: ClassGuaranteed,
		Spec:  NewSpec(Exact(CPU, 4)),
		Start: epoch, End: epoch.Add(time.Hour),
	}); err != nil {
		t.Fatalf("custom service request: %v", err)
	}
}

// TestStackRestartRecovers: a durable stack (WALDir set) is torn down
// and reassembled over the same directory — the replacement reports the
// recovery and carries the first stack's sessions and billing forward.
func TestStackRestartRecovers(t *testing.T) {
	dir := t.TempDir()
	plan := CapacityPlan{
		Guaranteed: Capacity{CPU: 15, MemoryMB: 6144, DiskGB: 120},
		Adaptive:   Capacity{CPU: 6, MemoryMB: 2048, DiskGB: 40},
		BestEffort: Capacity{CPU: 5, MemoryMB: 2048, DiskGB: 40},
	}
	build := func() *Stack {
		t.Helper()
		stack, err := NewStack(StackConfig{
			Domain: "site-a",
			Clock:  NewManualClock(epoch),
			Plan:   plan,
			WALDir: dir,
		})
		if err != nil {
			t.Fatal(err)
		}
		return stack
	}

	first := build()
	if first.Recovery != nil {
		t.Fatal("fresh start reported a recovery")
	}
	offer, err := first.Broker.RequestService(Request{
		Service: "simulation", Client: "quickstart", Class: ClassGuaranteed,
		Spec:  NewSpec(Exact(CPU, 10), Exact(MemoryMB, 2048), Exact(DiskGB, 15)),
		Start: epoch, End: epoch.Add(5 * time.Hour),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := first.Broker.Accept(offer.SLA.ID); err != nil {
		t.Fatal(err)
	}
	revenue := first.Broker.Ledger().NetRevenue()
	first.Close()

	second := build()
	defer second.Close()
	r := second.Recovery
	if r == nil {
		t.Fatal("restart over a populated WAL directory reported no recovery")
	}
	if r.Sessions != 1 {
		t.Fatalf("recovered %d session(s), want 1", r.Sessions)
	}
	doc, err := second.Broker.Session(offer.SLA.ID)
	if err != nil {
		t.Fatalf("recovered session: %v", err)
	}
	if doc.State != sla.StateEstablished {
		t.Errorf("recovered state = %v, want established", doc.State)
	}
	if got := second.Broker.Ledger().NetRevenue(); got != revenue {
		t.Errorf("recovered revenue = %g, want %g", got, revenue)
	}

	// In-process leg: the broker dies and Stack.RecoverBroker rebuilds it
	// against the surviving substrates. The stack was built with Obs nil,
	// so the replacement must count into the registry stack.New chose,
	// not a fresh private one.
	requests := second.Obs.Counter("gqosm_broker_lifecycle_total", "", "event", "request")
	request := func() {
		t.Helper()
		if _, err := second.Broker.RequestService(Request{
			Service: "simulation", Client: "after", Class: ClassGuaranteed,
			Spec:  NewSpec(Exact(CPU, 1)),
			Start: epoch, End: epoch.Add(time.Hour),
		}); err != nil {
			t.Fatal(err)
		}
	}
	request()
	before := requests.Value()
	second.Broker.Crash()
	stats, err := second.RecoverBroker()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Sessions != 2 || second.Recovery != stats {
		t.Errorf("in-process recovery: %d session(s), Recovery updated = %v; want 2, true", stats.Sessions, second.Recovery == stats)
	}
	if second.Broker.Obs() != second.Obs {
		t.Error("recovered broker reports into a different registry")
	}
	request()
	if got := requests.Value(); got != before+1 || before == 0 {
		t.Errorf("request counter %d -> %d across RecoverBroker, want it to keep counting", before, got)
	}
}
