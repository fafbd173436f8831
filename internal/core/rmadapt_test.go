package core

import (
	"testing"
	"time"

	"gqosm/internal/clockx"
	"gqosm/internal/dsrt"
	"gqosm/internal/gara"
	"gqosm/internal/registry"
	"gqosm/internal/resource"
	"gqosm/internal/sla"
)

func TestDSRTAdapterBoostsShares(t *testing.T) {
	sched := dsrt.New(dsrt.Config{Processors: 2}, nil)
	a := NewDSRTAdapter(sched)
	pid, err := sched.Register(dsrt.Contract{Class: dsrt.PeriodicVariable, Share: 0.4})
	if err != nil {
		t.Fatal(err)
	}
	a.Attach("s1", pid)

	doc := &sla.Document{
		ID: "s1", Class: sla.ClassGuaranteed,
		Spec: sla.NewSpec(sla.Exact(resource.CPU, 10)),
	}
	// The session measures 6 of 10 required CPU: a 40% deficit.
	if !a.TryRectify("s1", doc, resource.Nodes(6)) {
		t.Fatal("TryRectify = false with scheduler slack")
	}
	p, err := sched.Get(pid)
	if err != nil {
		t.Fatal(err)
	}
	if p.Contract.Share <= 0.4 {
		t.Errorf("share after rectify = %g, want > 0.4", p.Contract.Share)
	}
	// Approximately 0.4 × 1.4 = 0.56.
	if p.Contract.Share < 0.5 || p.Contract.Share > 0.6 {
		t.Errorf("share = %g, want ≈ 0.56", p.Contract.Share)
	}
}

func TestDSRTAdapterRefusals(t *testing.T) {
	sched := dsrt.New(dsrt.Config{Processors: 1}, nil)
	a := NewDSRTAdapter(sched)
	doc := &sla.Document{
		ID: "s1", Class: sla.ClassGuaranteed,
		Spec: sla.NewSpec(sla.Exact(resource.CPU, 10)),
	}

	// No attached processes.
	if a.TryRectify("s1", doc, resource.Nodes(6)) {
		t.Error("rectified with no processes")
	}

	pid, err := sched.Register(dsrt.Contract{Class: dsrt.PeriodicVariable, Share: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	a.Attach("s1", pid)

	// CPU not degraded: not an RM-level concern.
	if a.TryRectify("s1", doc, resource.Nodes(10)) {
		t.Error("rectified a healthy session")
	}
	// No CPU parameter at all (network-only SLA).
	netDoc := &sla.Document{
		ID: "s1", Class: sla.ClassGuaranteed,
		Spec: sla.NewSpec(sla.Exact(resource.BandwidthMbps, 45)),
	}
	if a.TryRectify("s1", netDoc, resource.Bandwidth(10)) {
		t.Error("rectified a network degradation at the CPU scheduler")
	}

	// Scheduler full: the boost is refused and TryRectify reports false.
	if _, err := sched.Register(dsrt.Contract{Class: dsrt.PeriodicConstant, Share: 0.5}); err != nil {
		t.Fatal(err)
	}
	if a.TryRectify("s1", doc, resource.Nodes(6)) {
		t.Error("rectified despite a full scheduler")
	}

	// Detach removes the association.
	a.Detach("s1")
	if a.TryRectify("s1", doc, resource.Nodes(6)) {
		t.Error("rectified after Detach")
	}
}

// TestDSRTAdapterIgnoresUnmeasuredCPU: a composite session's network
// degradation arrives with only its bandwidth measured. The zero CPU
// reading is "not measured", not a 100 % CPU deficit, so the scheduler is
// left alone and the broker's ladder goes on to AQoS-level adaptation.
func TestDSRTAdapterIgnoresUnmeasuredCPU(t *testing.T) {
	sched := dsrt.New(dsrt.Config{Processors: 2}, nil)
	a := NewDSRTAdapter(sched)
	pid, err := sched.Register(dsrt.Contract{Class: dsrt.PeriodicVariable, Share: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	a.Attach("s1", pid)
	doc := &sla.Document{
		ID: "s1", Class: sla.ClassGuaranteed,
		Spec: sla.NewSpec(sla.Exact(resource.CPU, 4), sla.Exact(resource.BandwidthMbps, 45)),
	}
	if a.TryRectify("s1", doc, resource.Capacity{BandwidthMbps: 10}) {
		t.Error("rectified a network degradation by boosting CPU shares")
	}
	if p, err := sched.Get(pid); err != nil || p.Contract.Share != 0.25 {
		t.Errorf("share = %g (%v), want 0.25 untouched", p.Contract.Share, err)
	}
}

// TestRMAdaptationTriedBeforeAQoSLevel wires a recording adapter into a
// broker and checks the §3.2 ordering: a degradation the RM rectifies
// never reaches AQoS-level adaptation (no violation, no alternative-QoS
// switch).
func TestRMAdaptationTriedBeforeAQoSLevel(t *testing.T) {
	clock := clockx.NewManual(t0)
	pool := resource.NewPool("p", resource.Capacity{CPU: 26, MemoryMB: 10240, DiskGB: 200})
	g := gara.NewSystem()
	g.RegisterManager(gara.NewComputeManager(pool))
	reg := registry.New(clock)
	if _, err := reg.Register(registry.Service{
		Name:       "simulation",
		Properties: []registry.Property{registry.NumProp("cpu-nodes", 26)},
	}); err != nil {
		t.Fatal(err)
	}

	rm := &recordingRM{rectify: true}
	b, err := NewBroker(Config{
		Domain: "site-a",
		Clock:  clock,
		Plan: CapacityPlan{
			Guaranteed: resource.Capacity{CPU: 15, MemoryMB: 6144},
			Adaptive:   resource.Capacity{CPU: 6, MemoryMB: 2048},
			BestEffort: resource.Capacity{CPU: 5, MemoryMB: 2048},
		},
		Registry:      reg,
		GARA:          g,
		RM:            rm,
		ConfirmWindow: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	offer, err := b.RequestService(Request{
		Service: "simulation", Client: "c", Class: sla.ClassGuaranteed,
		Spec:  sla.NewSpec(sla.Exact(resource.CPU, 10)),
		Start: t0, End: t5,
	})
	if err != nil {
		t.Fatal(err)
	}
	id := offer.SLA.ID
	if err := b.Accept(id); err != nil {
		t.Fatal(err)
	}

	// Report a below-floor measurement directly (the monitor path).
	b.handleDegradation(id, resource.Nodes(6))
	if rm.calls != 1 {
		t.Fatalf("RM adapter calls = %d, want 1", rm.calls)
	}
	if got := b.Violations(id); got != 0 {
		t.Errorf("violations = %d after RM-level rectification, want 0", got)
	}
	doc, _ := b.Session(id)
	if doc.State != sla.StateEstablished {
		t.Errorf("state = %v, want untouched established", doc.State)
	}

	// When the RM cannot rectify, the AQoS level takes over and records
	// the violation.
	rm.rectify = false
	b.handleDegradation(id, resource.Nodes(6))
	if rm.calls != 2 {
		t.Fatalf("RM adapter calls = %d, want 2", rm.calls)
	}
	if got := b.Violations(id); got == 0 {
		t.Error("no violation recorded after RM-level failure")
	}
}

type recordingRM struct {
	calls   int
	rectify bool
}

func (r *recordingRM) TryRectify(sla.ID, *sla.Document, resource.Capacity) bool {
	r.calls++
	return r.rectify
}
