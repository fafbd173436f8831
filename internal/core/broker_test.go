package core

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"gqosm/internal/clockx"
	"gqosm/internal/gara"
	"gqosm/internal/gram"
	"gqosm/internal/nrm"
	"gqosm/internal/registry"
	"gqosm/internal/resource"
	"gqosm/internal/rsl"
	"gqosm/internal/sla"
)

var (
	t0 = time.Date(2003, 6, 16, 9, 0, 0, 0, time.UTC)
	t5 = t0.Add(5 * time.Hour)
)

// harness wires a complete single-domain G-QoSM stack in process: the
// Fig. 5 testbed without HTTP.
type harness struct {
	clock  *clockx.Manual
	broker *Broker
	pool   *resource.Pool
	topo   *nrm.Topology
	netMgr *nrm.Manager
	reg    *registry.Registry
	gramM  *gram.Manager
	g      *gara.System
}

func newHarness(t testing.TB, mods ...func(*Config)) *harness {
	t.Helper()
	clock := clockx.NewManual(t0)

	pool := resource.NewPool("sgi", resource.Capacity{CPU: 26, MemoryMB: 10240, DiskGB: 200, BandwidthMbps: 1100})

	topo := nrm.NewTopology()
	for _, d := range []struct{ name, cidr string }{
		{"site-a", "192.200.168.0/24"},
		{"site-b", "135.200.50.0/24"},
		{"site-c", "10.10.0.0/16"},
	} {
		if err := topo.AddDomain(d.name, d.cidr); err != nil {
			t.Fatal(err)
		}
	}
	if err := topo.AddLink("site-a", "site-b", 1000); err != nil {
		t.Fatal(err)
	}
	if err := topo.AddLink("site-a", "site-c", 100); err != nil {
		t.Fatal(err)
	}
	netMgr := nrm.NewManager("site-a", topo)

	g := gara.NewSystem()
	g.RegisterManager(gara.NewComputeManager(pool))
	g.RegisterManager(gara.NewNetworkManager(netMgr))

	reg := registry.New(clock)
	if _, err := reg.Register(registry.Service{
		Name:     "simulation",
		Provider: "site-a",
		Properties: []registry.Property{
			registry.NumProp("cpu-nodes", 26),
			registry.NumProp("memory-mb", 10240),
			registry.NumProp("disk-gb", 200),
			registry.NumProp("bandwidth-mbps", 1000),
		},
	}); err != nil {
		t.Fatal(err)
	}

	gramM := gram.NewManager(clock)
	t.Cleanup(gramM.Close)

	cfg := Config{
		Domain: "site-a",
		Clock:  clock,
		Plan: CapacityPlan{
			Guaranteed: resource.Capacity{CPU: 15, MemoryMB: 6144, DiskGB: 120, BandwidthMbps: 700},
			Adaptive:   resource.Capacity{CPU: 6, MemoryMB: 2048, DiskGB: 40, BandwidthMbps: 200},
			BestEffort: resource.Capacity{CPU: 5, MemoryMB: 2048, DiskGB: 40, BandwidthMbps: 200},
		},
		Registry:      reg,
		GARA:          g,
		GRAM:          gramM,
		NRM:           netMgr,
		ConfirmWindow: 2 * time.Minute,
	}
	for _, mod := range mods {
		mod(&cfg)
	}
	broker, err := NewBroker(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(broker.Close)
	return &harness{clock: clock, broker: broker, pool: pool, topo: topo, netMgr: netMgr, reg: reg, gramM: gramM, g: g}
}

// guaranteedRequest is a §5.6-style composite request: 10 nodes, 2 GB,
// 15 GB disk plus a 45 Mbps flow from site C.
func guaranteedRequest() Request {
	spec := sla.NewSpec(
		sla.Exact(resource.CPU, 10),
		sla.Exact(resource.MemoryMB, 2048),
		sla.Exact(resource.DiskGB, 15),
		sla.Exact(resource.BandwidthMbps, 45),
	)
	spec.SourceIP = "10.10.3.4"
	spec.DestIP = "192.200.168.33"
	return Request{
		Service: "simulation",
		Client:  "site-c-scientists",
		Class:   sla.ClassGuaranteed,
		Spec:    spec,
		Start:   t0,
		End:     t5,
	}
}

// withParam returns spec with p in place of its parameter of p's kind, or
// added when it has none; spec itself is left as it was.
func withParam(spec sla.Spec, p sla.Param) sla.Spec {
	spec.Params = sla.NewSpec(append(slices.Clone(spec.Params), p)...).Params
	return spec
}

func controlledRequest(client string) Request {
	return Request{
		Service: "simulation",
		Client:  client,
		Class:   sla.ClassControlledLoad,
		Spec: sla.NewSpec(
			sla.Range(resource.CPU, 2, 8),
			sla.Range(resource.MemoryMB, 512, 2048),
		),
		Start:             t0,
		End:               t5,
		AcceptDegradation: true,
		PromotionOptIn:    true,
	}
}

// TestInvokeQuotesRSL is the regression test for the job RSL's quoting:
// it was rendered with Go's %q, whose backslash escapes RSL does not
// have, so a service named with a quote failed in GRAM's parser and one
// with a backslash launched an executable with the backslash doubled.
// The SLA ID travels beside the RSL, as the job's label.
func TestInvokeQuotesRSL(t *testing.T) {
	h := newHarness(t)
	for _, service := range []string{`say "hi"`, `back\slash`} {
		spec, err := rsl.Parse(jobRSL(service, time.Hour))
		if err != nil {
			t.Fatalf("%s: job RSL %s: %v", service, jobRSL(service, time.Hour), err)
		}
		if got, want := spec.Str("executable", ""), "/grid/services/"+service; got != want {
			t.Errorf("%s: executable = %q, want %q", service, got, want)
		}

		if _, err := h.reg.Register(registry.Service{Name: service, Provider: "site-a", Properties: simulationProps()}); err != nil {
			t.Fatal(err)
		}
		req := controlledRequest("quoting")
		req.Service = service
		offer, err := h.broker.RequestService(req)
		if err != nil {
			t.Fatalf("%s: RequestService: %v", service, err)
		}
		id := offer.SLA.ID
		if err := h.broker.Accept(id); err != nil {
			t.Fatalf("%s: Accept: %v", service, err)
		}
		job, err := h.broker.Invoke(id)
		if err != nil {
			t.Fatalf("%s: Invoke: %v", service, err)
		}
		if job.Label != string(id) {
			t.Errorf("%s: label = %q, want %q", service, job.Label, id)
		}
	}
}

// TestJobSpecsRepeat: the job RSL is a function of the service and the
// whole seconds left in the window, so two sessions of one service and
// window submit the same spec (one parse in GRAM, however many sessions),
// each job carries its own SLA ID as its label, and the job runs for the
// floored window — to the second on a manual clock.
func TestJobSpecsRepeat(t *testing.T) {
	for _, tc := range []struct {
		name    string
		elapsed time.Duration // clock advance between accept and invoke
		want    string
		runs    time.Duration
	}{
		{"whole window", 0, `&(executable="/grid/services/simulation")(duration=18000)`, 5 * time.Hour},
		{"fractional window", 5*time.Hour - 3599400*time.Millisecond, `&(executable="/grid/services/simulation")(duration=3599)`, 3599 * time.Second},
		{"lapsed window", 5*time.Hour + time.Minute, `&(executable="/grid/services/simulation")(duration=1)`, time.Second},
	} {
		t.Run(tc.name, func(t *testing.T) {
			h := newHarness(t)
			req := guaranteedRequest()
			req.Spec = sla.NewSpec(sla.Exact(resource.CPU, 2))
			var ids []sla.ID
			for range 2 {
				offer, err := h.broker.RequestService(req)
				if err != nil {
					t.Fatal(err)
				}
				if err := h.broker.Accept(offer.SLA.ID); err != nil {
					t.Fatal(err)
				}
				ids = append(ids, offer.SLA.ID)
			}
			h.clock.Advance(tc.elapsed)
			var jobs []gram.Job
			for _, id := range ids {
				doc, err := h.broker.Session(id)
				if err != nil {
					t.Fatal(err)
				}
				if got := jobRSL(doc.Service, doc.End.Sub(h.clock.Now())); got != tc.want {
					t.Errorf("%s: job RSL = %s, want %s", id, got, tc.want)
				}
				job, err := h.broker.Invoke(id)
				if err != nil {
					t.Fatal(err)
				}
				if job.Label != string(id) {
					t.Errorf("job %s label = %q, want %q", job.ID, job.Label, id)
				}
				jobs = append(jobs, job)
			}
			state := func() []gram.State {
				var out []gram.State
				for _, j := range jobs {
					got, err := h.gramM.Job(j.ID)
					if err != nil {
						t.Fatal(err)
					}
					out = append(out, got.State)
				}
				return out
			}
			h.clock.Advance(tc.runs - time.Nanosecond)
			for i, s := range state() {
				if s != gram.StateActive {
					t.Fatalf("job %d is %s a nanosecond before its %v, want active", i, s, tc.runs)
				}
			}
			h.clock.Advance(time.Nanosecond)
			for i, s := range state() {
				if s != gram.StateDone {
					t.Fatalf("job %d is %s after its %v, want done", i, s, tc.runs)
				}
			}
		})
	}
}

func TestFullSessionLifecycle(t *testing.T) {
	// The Fig. 2 sequence: QueryServices → RequestService →
	// resource queries → SLA negotiation → allocation → invocation →
	// QoS management.
	h := newHarness(t)
	b := h.broker

	offer, err := b.RequestService(guaranteedRequest())
	if err != nil {
		t.Fatalf("RequestService: %v", err)
	}
	if offer.SLA.State != sla.StateProposed {
		t.Errorf("offer state = %v", offer.SLA.State)
	}
	if offer.Price <= 0 {
		t.Errorf("price = %g", offer.Price)
	}
	want := resource.Capacity{CPU: 10, MemoryMB: 2048, DiskGB: 15, BandwidthMbps: 45}
	if !offer.SLA.Allocated.Equal(want) {
		t.Errorf("allocated = %v, want %v", offer.SLA.Allocated, want)
	}
	// Resources are temporarily reserved: the pool holds the compute
	// part, the NRM the flow.
	if got := h.pool.InUse(t0).CPU; got != 10 {
		t.Errorf("pool CPU in use = %g", got)
	}
	if len(h.netMgr.Flows()) != 1 {
		t.Errorf("flows = %d", len(h.netMgr.Flows()))
	}

	id := offer.SLA.ID
	if err := b.Accept(id); err != nil {
		t.Fatalf("Accept: %v", err)
	}
	doc, err := b.Session(id)
	if err != nil || doc.State != sla.StateEstablished {
		t.Fatalf("after accept: %v, %v", doc, err)
	}
	// The client was charged.
	if got := b.Ledger().NetRevenue(); got != offer.Price {
		t.Errorf("revenue = %g, want %g", got, offer.Price)
	}

	job, err := b.Invoke(id)
	if err != nil {
		t.Fatalf("Invoke: %v", err)
	}
	if job.State != gram.StateActive {
		t.Errorf("job state = %v", job.State)
	}
	doc, _ = b.Session(id)
	if doc.State != sla.StateActive {
		t.Errorf("session state = %v", doc.State)
	}

	rep, err := b.Verify(id)
	if err != nil {
		t.Fatalf("Verify: %v", err)
	}
	if !rep.Conforms {
		t.Errorf("healthy session does not conform: %+v", rep)
	}
	if rep.XML.Network == nil || !strings.Contains(rep.XML.Network.Bandwidth, "45") {
		t.Errorf("Table-3 network = %+v", rep.XML.Network)
	}

	if err := b.Terminate(id, "service completed"); err != nil {
		t.Fatalf("Terminate: %v", err)
	}
	if got := h.pool.InUse(h.clock.Now()).CPU; got != 0 {
		t.Errorf("pool CPU after terminate = %g", got)
	}
	if len(h.netMgr.Flows()) != 0 {
		t.Error("flow leaked after terminate")
	}
	doc, _ = b.Session(id)
	if doc.State != sla.StateTerminated {
		t.Errorf("final state = %v", doc.State)
	}
	// Fig. 6: the activity log narrates the session.
	var kinds []string
	for _, e := range b.Events() {
		kinds = append(kinds, e.Kind)
	}
	joined := strings.Join(kinds, ",")
	for _, want := range []string{"discovery", "offer", "sla", "invoke", "verify", "clearing"} {
		if !strings.Contains(joined, want) {
			t.Errorf("activity log missing %q: %v", want, kinds)
		}
	}
}

func TestRequestValidation(t *testing.T) {
	h := newHarness(t)
	base := guaranteedRequest()

	cases := []struct {
		name   string
		mutate func(*Request)
	}{
		{"no service", func(r *Request) { r.Service = "" }},
		{"best effort class", func(r *Request) { r.Class = sla.ClassBestEffort }},
		{"no params", func(r *Request) { r.Spec = sla.Spec{} }},
		{"bad window", func(r *Request) { r.End = r.Start }},
		{"promotion on guaranteed", func(r *Request) { r.PromotionOptIn = true }},
	}
	for _, tt := range cases {
		t.Run(tt.name, func(t *testing.T) {
			req := base
			tt.mutate(&req)
			if _, err := h.broker.RequestService(req); err == nil {
				t.Error("invalid request accepted")
			}
		})
	}
}

func TestDiscoveryNoMatch(t *testing.T) {
	h := newHarness(t)
	req := guaranteedRequest()
	req.Service = "teleportation"
	if _, err := h.broker.RequestService(req); !errors.Is(err, ErrNoService) {
		t.Errorf("err = %v, want ErrNoService", err)
	}
	// A QoS floor no registered service advertises also fails discovery.
	req = guaranteedRequest()
	req.Spec = withParam(req.Spec, sla.Exact(resource.CPU, 500))
	if _, err := h.broker.RequestService(req); !errors.Is(err, ErrNoService) {
		t.Errorf("err = %v, want ErrNoService", err)
	}
}

func TestBudget(t *testing.T) {
	h := newHarness(t)

	// Guaranteed over budget: rejected outright.
	req := guaranteedRequest()
	req.Budget = 1
	if _, err := h.broker.RequestService(req); !errors.Is(err, ErrOverBudget) {
		t.Fatalf("err = %v, want ErrOverBudget", err)
	}

	// Controlled-load degrades to the floor to fit the budget.
	cl := controlledRequest("cheap")
	floorPrice := h.broker.prices.Cost(sla.ClassControlledLoad, cl.Spec.Floor())
	bestPrice := h.broker.prices.Cost(sla.ClassControlledLoad, cl.Spec.Best())
	cl.Budget = (floorPrice + bestPrice) / 2
	offer, err := h.broker.RequestService(cl)
	if err != nil {
		t.Fatalf("RequestService: %v", err)
	}
	if !offer.SLA.Allocated.Equal(cl.Spec.Floor()) {
		t.Errorf("allocated = %v, want floor %v", offer.SLA.Allocated, cl.Spec.Floor())
	}
	if offer.Price > cl.Budget {
		t.Errorf("price %g > budget %g", offer.Price, cl.Budget)
	}

	// Even the floor over budget: rejected.
	cl2 := controlledRequest("broke")
	cl2.Budget = floorPrice / 10
	if _, err := h.broker.RequestService(cl2); !errors.Is(err, ErrOverBudget) {
		t.Errorf("err = %v, want ErrOverBudget", err)
	}
}

func TestOfferExpiresWithoutConfirmation(t *testing.T) {
	// §3.1: "If the RS does not receive such confirmation within the
	// pre-defined period of time, it instructs GARA to cancel the
	// reservation."
	h := newHarness(t)
	offer, err := h.broker.RequestService(guaranteedRequest())
	if err != nil {
		t.Fatal(err)
	}
	h.clock.Advance(3 * time.Minute)
	doc, err := h.broker.Session(offer.SLA.ID)
	if err != nil {
		t.Fatal(err)
	}
	if doc.State != sla.StateTerminated {
		t.Fatalf("state after window = %v, want terminated", doc.State)
	}
	if got := h.pool.InUse(h.clock.Now()).CPU; got != 0 {
		t.Errorf("pool still holds %g CPU after expiry", got)
	}
	if err := h.broker.Accept(offer.SLA.ID); !errors.Is(err, ErrBadState) {
		t.Errorf("Accept after expiry err = %v", err)
	}
}

func TestRejectReleasesResources(t *testing.T) {
	h := newHarness(t)
	offer, err := h.broker.RequestService(guaranteedRequest())
	if err != nil {
		t.Fatal(err)
	}
	if err := h.broker.Reject(offer.SLA.ID); err != nil {
		t.Fatalf("Reject: %v", err)
	}
	if got := h.pool.InUse(t0).CPU; got != 0 {
		t.Errorf("pool holds %g CPU after reject", got)
	}
	if err := h.broker.Reject(offer.SLA.ID); !errors.Is(err, ErrBadState) {
		t.Errorf("double Reject err = %v", err)
	}
	// The confirmation timer was stopped (no pending timers beyond
	// GRAM's none).
	if h.clock.PendingTimers() != 0 {
		t.Errorf("PendingTimers = %d", h.clock.PendingTimers())
	}
}

// TestCompensationOrders pins the scenario-1 ladder ordering: the
// cheapest session first (price, then ID).
func TestCompensationOrders(t *testing.T) {
	ts := []ladderTarget{
		{id: "a", price: 5},
		{id: "c", price: 2},
		{id: "d", price: 9},
		{id: "b", price: 1},
		{id: "e", price: 2},
	}
	cheapestFirst(ts)
	ids := make([]string, len(ts))
	for i, t := range ts {
		ids[i] = string(t.id)
	}
	if got, want := strings.Join(ids, ","), "b,c,e,a,d"; got != want {
		t.Errorf("ladder order = %s, want %s", got, want)
	}
}

func TestScenario1CompensationByDegradation(t *testing.T) {
	h := newHarness(t)
	b := h.broker

	// Fill the guaranteed side with two willing-to-degrade
	// controlled-load sessions (8 CPU, then the remaining 7).
	var ids []sla.ID
	for _, c := range []string{"c1", "c2"} {
		offer, err := b.RequestService(controlledRequest(c))
		if err != nil {
			t.Fatal(err)
		}
		if err := b.Accept(offer.SLA.ID); err != nil {
			t.Fatal(err)
		}
		if !offer.SLA.Spec.Accepts(offer.SLA.Allocated) {
			t.Fatalf("controlled-load allocation %v outside SLA", offer.SLA.Allocated)
		}
		ids = append(ids, offer.SLA.ID)
	}
	// The guaranteed side is now full (15 CPU). A new request for 10
	// requires scenario-1 compensation.
	offer, err := b.RequestService(guaranteedRequest())
	if err != nil {
		t.Fatalf("RequestService with compensation: %v", err)
	}
	if !offer.Compensated {
		t.Error("offer not marked compensated")
	}
	// Compensation is minimal: at least one willing session was degraded
	// to its floor, none below it (their SLAs still hold), and it stops
	// as soon as the new request fits.
	degraded := 0
	for _, id := range ids {
		doc, err := b.Session(id)
		if err != nil {
			t.Fatal(err)
		}
		if !doc.Spec.Accepts(doc.Allocated) {
			t.Errorf("%s degraded below SLA: %v", id, doc.Allocated)
		}
		if doc.Allocated.Equal(doc.Spec.Floor()) {
			degraded++
		}
	}
	if degraded == 0 {
		t.Error("no willing session was degraded")
	}
}

func TestScenario1CompensationRefusedWithoutVolunteers(t *testing.T) {
	h := newHarness(t)
	b := h.broker

	// An unwilling guaranteed session occupying most of the pool.
	big := guaranteedRequest()
	big.Spec = sla.NewSpec(sla.Exact(resource.CPU, 14))
	offer, err := b.RequestService(big)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Accept(offer.SLA.ID); err != nil {
		t.Fatal(err)
	}

	req := guaranteedRequest()
	req.Spec = sla.NewSpec(sla.Exact(resource.CPU, 10))
	if _, err := b.RequestService(req); err == nil {
		t.Fatal("request admitted without capacity or volunteers")
	}
}

func TestScenario1TerminationCompensation(t *testing.T) {
	h := newHarness(t)
	b := h.broker

	victim := controlledRequest("victim")
	victim.Spec = sla.NewSpec(sla.Range(resource.CPU, 12, 14))
	victim.AcceptDegradation = false
	victim.AcceptTermination = true
	victim.PromotionOptIn = false
	offer, err := b.RequestService(victim)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Accept(offer.SLA.ID); err != nil {
		t.Fatal(err)
	}

	req := guaranteedRequest()
	req.Spec = sla.NewSpec(sla.Exact(resource.CPU, 10))
	offer2, err := b.RequestService(req)
	if err != nil {
		t.Fatalf("RequestService: %v", err)
	}
	if !offer2.Compensated {
		t.Error("not marked compensated")
	}
	doc, _ := b.Session(offer.SLA.ID)
	if doc.State != sla.StateTerminated {
		t.Errorf("victim state = %v, want terminated", doc.State)
	}
}

func TestScenario2RestoreAndPromotions(t *testing.T) {
	h := newHarness(t)
	b := h.broker

	// Two controlled-load sessions at best quality (range [2,6] so both
	// fit C_G together).
	narrow := func(client string) Request {
		r := controlledRequest(client)
		r.Spec = sla.NewSpec(sla.Range(resource.CPU, 2, 6))
		return r
	}
	o1, err := b.RequestService(narrow("c1"))
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Accept(o1.SLA.ID); err != nil {
		t.Fatal(err)
	}
	o2, err := b.RequestService(narrow("c2"))
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Accept(o2.SLA.ID); err != nil {
		t.Fatal(err)
	}

	// A guaranteed arrival forces degradation (scenario 1)...
	big := guaranteedRequest()
	big.Spec = sla.NewSpec(sla.Exact(resource.CPU, 10))
	o3, err := b.RequestService(big)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Accept(o3.SLA.ID); err != nil {
		t.Fatal(err)
	}
	d1, _ := b.Session(o1.SLA.ID)
	if !d1.Allocated.Equal(d1.Spec.Floor()) {
		t.Fatalf("c1 not degraded: %v", d1.Allocated)
	}

	// ... and its termination restores them (scenario 2a).
	if err := b.Terminate(o3.SLA.ID, "completed"); err != nil {
		t.Fatal(err)
	}
	d1, _ = b.Session(o1.SLA.ID)
	d2, _ := b.Session(o2.SLA.ID)
	if !d1.Allocated.Equal(d1.Spec.Best()) || !d2.Allocated.Equal(d2.Spec.Best()) {
		t.Errorf("restoration failed: c1=%v c2=%v", d1.Allocated, d2.Allocated)
	}
}

func TestScenario2PromotionOfferAndAccept(t *testing.T) {
	h := newHarness(t)
	b := h.broker

	// A controlled-load session admitted while a big guaranteed session
	// squeezes it down.
	big := guaranteedRequest()
	big.Spec = sla.NewSpec(sla.Exact(resource.CPU, 13))
	ob, err := b.RequestService(big)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Accept(ob.SLA.ID); err != nil {
		t.Fatal(err)
	}

	cl := controlledRequest("upgrader")
	oc, err := b.RequestService(cl)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Accept(oc.SLA.ID); err != nil {
		t.Fatal(err)
	}
	docBefore, _ := b.Session(oc.SLA.ID)
	if docBefore.Allocated.Equal(docBefore.Spec.Best()) {
		t.Fatal("test setup: controlled-load should start below best")
	}
	priceBefore := docBefore.Price

	// Big session ends: a promotion offer appears (the optimizer may
	// already upgrade the allocation; the promotion then covers any
	// remaining headroom, or the optimizer upgrade absorbed it).
	if err := b.Terminate(ob.SLA.ID, "completed"); err != nil {
		t.Fatal(err)
	}
	promos := b.Promotions()
	doc, _ := b.Session(oc.SLA.ID)
	if len(promos) == 0 {
		// The optimizer must have upgraded it instead.
		if !doc.Allocated.Equal(doc.Spec.Best()) {
			t.Fatalf("no promotion and no upgrade: %v", doc.Allocated)
		}
		return
	}
	offer := promos[0]
	if offer.SLA != oc.SLA.ID || offer.OfferPrice >= offer.ListPrice {
		t.Fatalf("promotion = %+v", offer)
	}
	if err := b.AcceptPromotion(oc.SLA.ID); err != nil {
		t.Fatalf("AcceptPromotion: %v", err)
	}
	doc, _ = b.Session(oc.SLA.ID)
	if !doc.Allocated.Equal(offer.To) {
		t.Errorf("after promotion: %v, want %v", doc.Allocated, offer.To)
	}
	if doc.Price <= priceBefore {
		t.Errorf("price did not grow: %g", doc.Price)
	}
	if len(b.Promotions()) != 0 {
		t.Error("promotion still open after accept")
	}
	if err := b.AcceptPromotion(oc.SLA.ID); err == nil {
		t.Error("double AcceptPromotion succeeded")
	}
}

func TestScenario3DegradationAlternativeQoSAndRecovery(t *testing.T) {
	h := newHarness(t)
	b := h.broker

	req := guaranteedRequest()
	req.AcceptDegradation = true
	offer, err := b.RequestService(req)
	if err != nil {
		t.Fatal(err)
	}
	id := offer.SLA.ID
	if err := b.Accept(id); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Invoke(id); err != nil {
		t.Fatal(err)
	}

	// Congest the C—A link to 50%: the NRM notices on its next check and
	// notifies the broker (scenario 3 trigger).
	if err := h.topo.SetCongestion("site-a", "site-c", nrm.Congestion{BandwidthFactor: 0.5}); err != nil {
		t.Fatal(err)
	}
	degraded := h.netMgr.CheckAll(h.clock.Now())
	if len(degraded) == 0 {
		t.Fatal("NRM saw no degradation")
	}
	doc, _ := b.Session(id)
	if doc.State == sla.StateActive {
		t.Errorf("session still fully active after degradation: %v", doc.State)
	}
	if v := b.Violations(id); v == 0 {
		t.Error("no violation recorded for below-floor bandwidth")
	}

	// Verify also reports non-conformance while congested.
	rep, err := b.Verify(id)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Conforms {
		t.Error("Verify conforms during congestion")
	}

	// Recovery: congestion clears; a released session triggers
	// restoration (scenario 2a path reused by 3a).
	if err := h.topo.SetCongestion("site-a", "site-c", nrm.Congestion{}); err != nil {
		t.Fatal(err)
	}
	b.afterRelease()
	doc, _ = b.Session(id)
	if !doc.Allocated.Equal(offer.SLA.Allocated) {
		t.Errorf("allocation after recovery = %v, want %v", doc.Allocated, offer.SLA.Allocated)
	}
}

func TestScenario3RepeatedViolationsTerminate(t *testing.T) {
	h := newHarness(t)
	b := h.broker

	req := guaranteedRequest()
	offer, err := b.RequestService(req)
	if err != nil {
		t.Fatal(err)
	}
	id := offer.SLA.ID
	if err := b.Accept(id); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Invoke(id); err != nil {
		t.Fatal(err)
	}
	if err := h.topo.SetCongestion("site-a", "site-c", nrm.Congestion{BandwidthFactor: 0.1}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		h.netMgr.CheckAll(h.clock.Now())
		doc, _ := b.Session(id)
		if doc.State == sla.StateTerminated {
			break
		}
	}
	doc, _ := b.Session(id)
	if doc.State != sla.StateTerminated {
		t.Fatalf("state after repeated violations = %v, want terminated (scenario 3c)", doc.State)
	}
}

func TestExpireDue(t *testing.T) {
	h := newHarness(t)
	b := h.broker
	offer, err := b.RequestService(guaranteedRequest())
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Accept(offer.SLA.ID); err != nil {
		t.Fatal(err)
	}
	if due := b.ExpireDue(); len(due) != 0 {
		t.Fatalf("ExpireDue before end = %v", due)
	}
	h.clock.Advance(6 * time.Hour)
	due := b.ExpireDue()
	if len(due) != 1 || due[0] != offer.SLA.ID {
		t.Fatalf("ExpireDue = %v", due)
	}
	doc, _ := b.Session(offer.SLA.ID)
	if doc.State != sla.StateExpired {
		t.Errorf("state = %v", doc.State)
	}
}

func TestBestEffortFlow(t *testing.T) {
	h := newHarness(t)
	b := h.broker
	if err := b.BestEffortRequest("student", resource.Nodes(20)); err != nil {
		t.Fatalf("BestEffortRequest: %v", err)
	}
	if err := b.BestEffortRequest("student2", resource.Nodes(10)); !errors.Is(err, ErrBestEffortFull) {
		t.Fatalf("over-request err = %v", err)
	}
	if err := b.BestEffortRelease("student"); err != nil {
		t.Fatal(err)
	}
	if err := b.BestEffortRequest("student2", resource.Nodes(10)); err != nil {
		t.Fatalf("after release: %v", err)
	}
}

func TestNotifyFailurePreemptsBestEffort(t *testing.T) {
	h := newHarness(t)
	b := h.broker
	offer, err := b.RequestService(guaranteedRequest())
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Accept(offer.SLA.ID); err != nil {
		t.Fatal(err)
	}
	if err := b.BestEffortRequest("be", resource.Nodes(16)); err != nil {
		t.Fatal(err)
	}
	// t2: three guaranteed-pool processors fail.
	pre := b.NotifyFailure(resource.Nodes(3))
	if len(pre) != 1 {
		t.Fatalf("preemptions = %+v", pre)
	}
	// The guaranteed session keeps its 10 nodes.
	doc, _ := b.Session(offer.SLA.ID)
	if doc.Allocated.CPU != 10 {
		t.Errorf("guaranteed allocation after failure = %v", doc.Allocated)
	}
	// t3: recovery.
	if got := b.NotifyFailure(resource.Capacity{}); len(got) != 0 {
		t.Errorf("recovery preempted %v", got)
	}
}

func TestRunOptimizerUpgrades(t *testing.T) {
	h := newHarness(t)
	b := h.broker

	// Squeeze a controlled-load session down, then free the squeezer and
	// run the optimizer explicitly.
	big := guaranteedRequest()
	big.Spec = sla.NewSpec(sla.Exact(resource.CPU, 13))
	ob, err := b.RequestService(big)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Accept(ob.SLA.ID); err != nil {
		t.Fatal(err)
	}
	oc, err := b.RequestService(controlledRequest("c1"))
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Accept(oc.SLA.ID); err != nil {
		t.Fatal(err)
	}
	before, _ := b.Session(oc.SLA.ID)
	if before.Allocated.Equal(before.Spec.Best()) {
		t.Fatal("setup: session already at best")
	}

	// Free capacity without the automatic scenario-2 hook by releasing
	// the allocator grant directly, then run the optimizer.
	if err := b.Terminate(ob.SLA.ID, "done"); err != nil {
		t.Fatal(err)
	}
	after, _ := b.Session(oc.SLA.ID)
	if !after.Allocated.Equal(after.Spec.Best()) {
		t.Errorf("optimizer did not upgrade: %v, want %v", after.Allocated, after.Spec.Best())
	}
	out, err := b.RunOptimizer()
	if err != nil {
		t.Fatal(err)
	}
	if out.Applied {
		t.Errorf("second optimizer pass applied changes: %+v", out)
	}
}

func TestBrokerClosedRefusesRequests(t *testing.T) {
	h := newHarness(t)
	h.broker.Close()
	if _, err := h.broker.RequestService(guaranteedRequest()); !errors.Is(err, ErrClosed) {
		t.Errorf("err = %v, want ErrClosed", err)
	}
	if err := h.broker.BestEffortRequest("x", resource.Nodes(1)); !errors.Is(err, ErrClosed) {
		t.Errorf("err = %v, want ErrClosed", err)
	}
	h.broker.Close() // idempotent
}

func TestNewBrokerValidation(t *testing.T) {
	if _, err := NewBroker(Config{}); err == nil {
		t.Error("NewBroker without GARA accepted")
	}
	if _, err := NewBroker(Config{GARA: gara.NewSystem()}); err == nil {
		t.Error("NewBroker with empty plan accepted")
	}
}

func TestEventString(t *testing.T) {
	e := Event{At: t0, Kind: "offer", SLA: "x", Msg: "m"}
	if !strings.Contains(e.String(), "offer") || !strings.Contains(e.String(), "(x)") {
		t.Errorf("Event.String = %q", e.String())
	}
	e2 := Event{At: t0, Kind: "failure", Msg: "m"}
	if strings.Contains(e2.String(), "()") {
		t.Errorf("Event.String = %q", e2.String())
	}
}

func TestEventRingWraparound(t *testing.T) {
	const cap = 16
	b := newHarness(t, func(cfg *Config) { cfg.EventLogCap = cap }).broker

	// Each request logs at least one discovery event; push well past the
	// ring capacity.
	for i := 0; i < 3*cap; i++ {
		_, _ = b.RequestService(Request{
			Service: "simulation",
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
