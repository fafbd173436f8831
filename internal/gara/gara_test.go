package gara

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"gqosm/internal/dsrt"
	"gqosm/internal/nrm"
	"gqosm/internal/resource"
	"gqosm/internal/rsl"
)

var (
	t0   = time.Date(2003, 6, 16, 9, 0, 0, 0, time.UTC)
	tEnd = t0.Add(5 * time.Hour)
)

// testSystem wires GARA to a 26-node compute pool, a 500 GB storage pool,
// the §5.6 network, and a 4-processor DSRT scheduler.
func testSystem(t *testing.T) (*System, *resource.Pool, *nrm.Manager) {
	t.Helper()
	pool := resource.NewPool("sgi", resource.Capacity{CPU: 26, MemoryMB: 10240, DiskGB: 200})
	topo := nrm.NewTopology()
	for _, d := range []struct{ name, cidr string }{
		{"site-a", "192.200.168.0/24"},
		{"site-b", "135.200.50.0/24"},
	} {
		if err := topo.AddDomain(d.name, d.cidr); err != nil {
			t.Fatal(err)
		}
	}
	if err := topo.AddLink("site-a", "site-b", 1000); err != nil {
		t.Fatal(err)
	}
	netMgr := nrm.NewManager("site-a", topo)

	s := NewSystem()
	s.RegisterManager(NewComputeManager(pool))
	s.RegisterManager(NewStorageManager(resource.NewPool("store", resource.Capacity{DiskGB: 500})))
	s.RegisterManager(NewNetworkManager(netMgr))
	s.RegisterManager(NewDSRTManager(dsrt.New(dsrt.Config{Processors: 4}, nil)))
	return s, pool, netMgr
}

const computeReq = `&(reservation-type="compute")(count=10)(memory=2048)(disk=15)`

func TestCreateComputeReservation(t *testing.T) {
	s, pool, _ := testSystem(t)
	h, err := s.Create(computeReq, t0, tEnd, "SLA_comp")
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	r, err := s.Get(h)
	if err != nil {
		t.Fatal(err)
	}
	if r.Status != StatusReserved {
		t.Errorf("Status = %v", r.Status)
	}
	if len(r.Parts) != 1 {
		t.Errorf("Parts = %v", r.Parts)
	}
	want := resource.Capacity{CPU: 10, MemoryMB: 2048, DiskGB: 15}
	if got := pool.InUse(t0); !got.Equal(want) {
		t.Errorf("pool in use = %v, want %v", got, want)
	}
}

func TestBindUnbindLifecycle(t *testing.T) {
	s, _, _ := testSystem(t)
	h, err := s.Create(computeReq, t0, tEnd, "")
	if err != nil {
		t.Fatal(err)
	}
	// Claim the reservation for the launched process (§3.1).
	if err := s.Bind(h); err != nil {
		t.Fatalf("Bind: %v", err)
	}
	r, _ := s.Get(h)
	if r.Status != StatusBound {
		t.Errorf("after bind: %+v", r)
	}
	if err := s.Unbind(h); err != nil {
		t.Fatalf("Unbind: %v", err)
	}
	r, _ = s.Get(h)
	if r.Status != StatusReserved {
		t.Errorf("after unbind: %+v", r)
	}
	if err := s.Unbind(h); !errors.Is(err, ErrNotBound) {
		t.Errorf("double Unbind err = %v", err)
	}
}

func TestCancelReleasesResources(t *testing.T) {
	s, pool, _ := testSystem(t)
	h, err := s.Create(computeReq, t0, tEnd, "")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Cancel(h); err != nil {
		t.Fatalf("Cancel: %v", err)
	}
	if got := pool.InUse(t0); !got.IsZero() {
		t.Errorf("pool in use after cancel = %v", got)
	}
	if err := s.Cancel(h); !errors.Is(err, ErrCanceled) {
		t.Errorf("double Cancel err = %v", err)
	}
	if err := s.Bind(h); !errors.Is(err, ErrCanceled) {
		t.Errorf("Bind after cancel err = %v", err)
	}
}

func TestCoAllocationMultirequest(t *testing.T) {
	s, pool, netMgr := testSystem(t)
	// The §5.6 composite request: compute at site A plus the B->A link.
	req := `+(&(reservation-type="compute")(count=10)(memory=2048)(disk=15))` +
		`(&(reservation-type="network")(source-ip="135.200.50.101")(dest-ip="192.200.168.33")(bandwidth=622))`
	h, err := s.Create(req, t0, tEnd, "composite")
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	r, _ := s.Get(h)
	if len(r.Parts) != 2 {
		t.Fatalf("Parts = %v", r.Parts)
	}
	if pool.InUse(t0).CPU != 10 {
		t.Error("compute part not reserved")
	}
	if len(netMgr.Flows()) != 1 {
		t.Error("network part not reserved")
	}
	if err := s.Cancel(h); err != nil {
		t.Fatal(err)
	}
	if len(netMgr.Flows()) != 0 {
		t.Error("network part not released on cancel")
	}
}

func TestCoAllocationAtomicRollback(t *testing.T) {
	s, pool, netMgr := testSystem(t)
	// Network part asks for more than the 1000 Mbps link: the whole
	// multirequest must fail and the compute part must be rolled back.
	req := `+(&(reservation-type="compute")(count=10))` +
		`(&(reservation-type="network")(source-ip="135.200.50.101")(dest-ip="192.200.168.33")(bandwidth=2000))`
	if _, err := s.Create(req, t0, tEnd, ""); err == nil {
		t.Fatal("Create succeeded, want failure")
	}
	if got := pool.InUse(t0); !got.IsZero() {
		t.Errorf("compute part leaked: %v", got)
	}
	if len(netMgr.Flows()) != 0 {
		t.Error("network part leaked")
	}
}

func TestModifyMultirequestAtomic(t *testing.T) {
	s, pool, netMgr := testSystem(t)
	const net = `(&(reservation-type="network")(source-ip="135.200.50.101")(dest-ip="192.200.168.33")`
	req := `+(&(reservation-type="compute")(count=10))` + net + `(bandwidth=622))`
	h, err := s.Create(req, t0, tEnd, "")
	if err != nil {
		t.Fatal(err)
	}
	// The network part asks for more than the 1000 Mbps link after the
	// compute part has already grown: the whole Modify must fail and the
	// compute part go back to what Reservation.Spec still says.
	over := `+(&(reservation-type="compute")(count=20))` + net + `(bandwidth=5000))`
	if err := s.Modify(h, over); !errors.Is(err, nrm.ErrInsufficientBandwidth) {
		t.Fatalf("Modify err = %v, want ErrInsufficientBandwidth", err)
	}
	if r, _ := s.Get(h); r.Spec != req {
		t.Errorf("Spec after failed Modify = %s", r.Spec)
	}
	if got := pool.InUse(t0); !got.Equal(resource.Nodes(10)) {
		t.Errorf("compute part not walked back: %v in use, spec says 10 nodes", got)
	}
	if flows := netMgr.Flows(); len(flows) != 1 || flows[0].Mbps != 622 {
		t.Errorf("network part after failed Modify = %+v", flows)
	}

	// A part that will not go back is named in the error, not dropped:
	// with one node left online, a shrink to 1 fits and the standing 10 no
	// longer do.
	pool.SetOffline(resource.Nodes(25))
	err = s.Modify(h, `+(&(reservation-type="compute")(count=1))`+net+`(bandwidth=5000))`)
	if !errors.Is(err, nrm.ErrInsufficientBandwidth) ||
		!strings.Contains(err.Error(), "walking the compute part back failed") {
		t.Fatalf("Modify err = %v, want the failed walk-back reported", err)
	}
}

func TestCreateErrors(t *testing.T) {
	s, _, _ := testSystem(t)
	tests := []struct {
		name, req string
	}{
		{"bad rsl", "&(count="},
		{"missing type", `&(count=10)`},
		{"unknown type", `&(reservation-type="warp-drive")(count=1)`},
		{"empty compute", `&(reservation-type="compute")(label="x")`},
		{"storage no disk", `&(reservation-type="storage")(count=3)`},
		{"network no endpoints", `&(reservation-type="network")(bandwidth=10)`},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := s.Create(tt.req, t0, tEnd, ""); err == nil {
				t.Errorf("Create(%q) succeeded", tt.req)
			}
		})
	}
	if _, err := s.Get("ghost"); !errors.Is(err, ErrUnknownHandle) {
		t.Errorf("Get unknown err = %v", err)
	}
	if err := s.Bind("ghost"); !errors.Is(err, ErrUnknownHandle) {
		t.Errorf("Bind unknown err = %v", err)
	}
	if err := s.Cancel("ghost"); !errors.Is(err, ErrUnknownHandle) {
		t.Errorf("Cancel unknown err = %v", err)
	}
	if err := s.Unbind("ghost"); !errors.Is(err, ErrUnknownHandle) {
		t.Errorf("Unbind unknown err = %v", err)
	}
	if err := s.Modify("ghost", computeReq); !errors.Is(err, ErrUnknownHandle) {
		t.Errorf("Modify unknown err = %v", err)
	}
}

func TestModifyCompute(t *testing.T) {
	s, pool, _ := testSystem(t)
	h, err := s.Create(computeReq, t0, tEnd, "")
	if err != nil {
		t.Fatal(err)
	}
	// Shrink to 4 nodes (the QoS adaptation path).
	if err := s.Modify(h, `&(reservation-type="compute")(count=4)(memory=1024)(disk=15)`); err != nil {
		t.Fatalf("Modify: %v", err)
	}
	want := resource.Capacity{CPU: 4, MemoryMB: 1024, DiskGB: 15}
	if got := pool.InUse(t0); !got.Equal(want) {
		t.Errorf("after modify: %v, want %v", got, want)
	}
	// Growing beyond the pool fails.
	if err := s.Modify(h, `&(reservation-type="compute")(count=99)`); err == nil {
		t.Error("oversized Modify succeeded")
	}
	// Modify introducing a type the reservation does not hold fails.
	if err := s.Modify(h, `&(reservation-type="storage")(disk=10)`); !errors.Is(err, ErrUnknownType) {
		t.Errorf("cross-type Modify err = %v", err)
	}
	// Modify after cancel fails.
	if err := s.Cancel(h); err != nil {
		t.Fatal(err)
	}
	if err := s.Modify(h, computeReq); !errors.Is(err, ErrCanceled) {
		t.Errorf("Modify after cancel err = %v", err)
	}
}

func TestModifyNetworkReissuesFlow(t *testing.T) {
	s, _, netMgr := testSystem(t)
	req := `&(reservation-type="network")(source-ip="135.200.50.101")(dest-ip="192.200.168.33")(bandwidth=622)`
	h, err := s.Create(req, t0, tEnd, "SLA_net1")
	if err != nil {
		t.Fatal(err)
	}
	// Adapt the reservation down to 100 Mbps, twice (alias chasing).
	for _, bw := range []float64{100, 200} {
		mod := fmt.Sprintf(`&(reservation-type="network")(bandwidth=%g)`, bw)
		if err := s.Modify(h, mod); err != nil {
			t.Fatalf("Modify(%g): %v", bw, err)
		}
		flows := netMgr.Flows()
		if len(flows) != 1 || flows[0].Mbps != bw {
			t.Fatalf("flows after modify = %+v", flows)
		}
	}
	// Cancel still works through the alias.
	if err := s.Cancel(h); err != nil {
		t.Fatalf("Cancel after modify: %v", err)
	}
	if len(netMgr.Flows()) != 0 {
		t.Error("flow leaked after cancel")
	}
}

func TestModifyNetworkRestoreOnFailure(t *testing.T) {
	s, _, netMgr := testSystem(t)
	req := `&(reservation-type="network")(source-ip="135.200.50.101")(dest-ip="192.200.168.33")(bandwidth=622)`
	h, err := s.Create(req, t0, tEnd, "")
	if err != nil {
		t.Fatal(err)
	}
	// Asking for more than the link fails but must restore 622.
	if err := s.Modify(h, `&(reservation-type="network")(bandwidth=5000)`); err == nil {
		t.Fatal("oversized network Modify succeeded")
	}
	flows := netMgr.Flows()
	if len(flows) != 1 || flows[0].Mbps != 622 {
		t.Fatalf("flow not restored: %+v", flows)
	}
}

func TestDSRTManagerLifecycle(t *testing.T) {
	sched := dsrt.New(dsrt.Config{Processors: 1}, nil)
	s := NewSystem()
	s.RegisterManager(NewDSRTManager(sched))
	h, err := s.Create(`&(reservation-type="cpu-share")(share=0.5)(class="PCPT")(period=33)`, t0, tEnd, "")
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	if got := sched.Reserved(); got != 0.5 {
		t.Errorf("Reserved = %g", got)
	}
	if err := s.Bind(h); err != nil {
		t.Fatalf("Bind: %v", err)
	}
	if err := s.Modify(h, `&(reservation-type="cpu-share")(share=0.25)`); err != nil {
		t.Fatalf("Modify: %v", err)
	}
	if got := sched.Reserved(); got != 0.25 {
		t.Errorf("Reserved after modify = %g", got)
	}
	if err := s.Unbind(h); err != nil {
		t.Fatal(err)
	}
	if err := s.Cancel(h); err != nil {
		t.Fatal(err)
	}
	if got := sched.Reserved(); got != 0 {
		t.Errorf("Reserved after cancel = %g", got)
	}
}

func TestStorageManager(t *testing.T) {
	pool := resource.NewPool("store", resource.Capacity{DiskGB: 100})
	s := NewSystem()
	s.RegisterManager(NewStorageManager(pool))
	h, err := s.Create(`&(reservation-type="storage")(disk=60)`, t0, tEnd, "")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Create(`&(reservation-type="storage")(disk=60)`, t0, tEnd, ""); err == nil {
		t.Error("oversubscribed storage accepted")
	}
	if err := s.Modify(h, `&(reservation-type="storage")(disk=40)`); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Create(`&(reservation-type="storage")(disk=60)`, t0, tEnd, ""); err != nil {
		t.Errorf("fitting storage rejected after shrink: %v", err)
	}
}

func TestReservationsSnapshot(t *testing.T) {
	s, _, _ := testSystem(t)
	for i := 0; i < 3; i++ {
		if _, err := s.Create(`&(reservation-type="compute")(count=2)`, t0, tEnd, ""); err != nil {
			t.Fatal(err)
		}
	}
	rs := s.Reservations()
	if len(rs) != 3 {
		t.Fatalf("Reservations = %d", len(rs))
	}
	// Mutating a snapshot must not affect the system.
	rs[0].Parts[0].Token = "evil"
	got, _ := s.Get(rs[0].Handle)
	if got.Parts[0].Token == "evil" {
		t.Error("Reservations shares Parts with the table")
	}
	got.Parts[0].Token = "evil"
	if again, _ := s.Get(rs[0].Handle); again.Parts[0].Token == "evil" {
		t.Error("Get shares Parts with the table")
	}
}

func TestStatusString(t *testing.T) {
	if StatusReserved.String() != "reserved" || StatusBound.String() != "bound" ||
		StatusCanceled.String() != "canceled" || Status(9).String() != "status(9)" {
		t.Error("status strings wrong")
	}
}

func TestConcurrentCreateCancel(t *testing.T) {
	s, pool, _ := testSystem(t)
	var wg sync.WaitGroup
	for i := 0; i < 13; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			h, err := s.Create(`&(reservation-type="compute")(count=2)`, t0, tEnd, "")
			if err != nil {
				// Admission failures under concurrency are fine; leaks
				// are not.
				if !strings.Contains(err.Error(), "insufficient") {
					t.Errorf("Create: %v", err)
				}
				return
			}
			if err := s.Cancel(h); err != nil {
				t.Errorf("Cancel: %v", err)
			}
		}()
	}
	wg.Wait()
	if got := pool.InUse(t0); !got.IsZero() {
		t.Fatalf("pool leaked %v after concurrent create/cancel", got)
	}
}

// Property-ish check via the rsl evaluator: the compute capacity parsed
// from a generated spec matches what we asked for.
func TestComputeCapacityFromRSL(t *testing.T) {
	spec, err := rsl.Parse(`&(reservation-type="compute")(count=10)(memory=2048)(disk=15)`)
	if err != nil {
		t.Fatal(err)
	}
	got := computeCapacity(spec)
	want := resource.Capacity{CPU: 10, MemoryMB: 2048, DiskGB: 15}
	if !got.Equal(want) {
		t.Errorf("computeCapacity = %v, want %v", got, want)
	}
}

func TestManagerAccessors(t *testing.T) {
	dm := NewDSRTManager(dsrt.New(dsrt.Config{Processors: 1}, nil))
	// dsrtClass covers all mnemonics.
	if dsrtClass("PCPT") != dsrt.PeriodicConstant || dsrtClass("pvpt") != dsrt.PeriodicVariable ||
		dsrtClass("anything") != dsrt.Aperiodic {
		t.Error("dsrtClass mapping wrong")
	}
	// DSRT Modify/Cancel reject malformed tokens.
	if err := dm.Modify("not-a-pid", &rsl.Node{Kind: rsl.KindConjunction}); err == nil {
		t.Error("bad dsrt token accepted by Modify")
	}
	if err := dm.Cancel("not-a-pid"); err == nil {
		t.Error("bad dsrt token accepted by Cancel")
	}
}

func TestNetworkManagerFlowFollowsAliases(t *testing.T) {
	topo := nrm.NewTopology()
	for _, d := range []struct{ name, cidr string }{
		{"site-a", "192.200.168.0/24"},
		{"site-b", "135.200.50.0/24"},
	} {
		if err := topo.AddDomain(d.name, d.cidr); err != nil {
			t.Fatal(err)
		}
	}
	if err := topo.AddLink("site-a", "site-b", 1000); err != nil {
		t.Fatal(err)
	}
	netMgr := nrm.NewManager("site-a", topo)
	nm := NewNetworkManager(netMgr)
	s := NewSystem()
	s.RegisterManager(nm)

	req := `&(reservation-type="network")(source-ip="135.200.50.101")(dest-ip="192.200.168.33")(bandwidth=100)`
	h, err := s.Create(req, t0, tEnd, "alias-test")
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Get(h)
	if err != nil {
		t.Fatal(err)
	}
	token, ok := res.Token(TypeNetwork)
	if !ok {
		t.Fatalf("Parts = %v, want a network part", res.Parts)
	}

	// Two successive modifies re-issue the flow twice; the original
	// token must still resolve through the alias table.
	for _, bw := range []float64{50, 75} {
		if err := s.Modify(h, fmt.Sprintf(`&(reservation-type="network")(bandwidth=%g)`, bw)); err != nil {
			t.Fatalf("Modify(%g): %v", bw, err)
		}
		flow, err := nm.flow(token)
		if err != nil {
			t.Fatalf("Flow(original token) after modify: %v", err)
		}
		if flow.Mbps != bw {
			t.Fatalf("Flow = %g Mbps, want %g", flow.Mbps, bw)
		}
	}
	if err := s.Cancel(h); err != nil {
		t.Fatalf("Cancel through alias: %v", err)
	}
	if len(netMgr.Flows()) != 0 {
		t.Error("flow leaked")
	}
}

func TestStorageManagerCancel(t *testing.T) {
	pool := resource.NewPool("store", resource.Capacity{DiskGB: 100})
	s := NewSystem()
	s.RegisterManager(NewStorageManager(pool))
	h, err := s.Create(`&(reservation-type="storage")(disk=60)`, t0, tEnd, "")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Cancel(h); err != nil {
		t.Fatalf("Cancel: %v", err)
	}
	if got := pool.InUse(t0); !got.IsZero() {
		t.Errorf("pool holds %v after cancel", got)
	}
}

func TestPruneCanceled(t *testing.T) {
	pool := resource.NewPool("m", resource.Capacity{CPU: 16})
	s := NewSystem()
	s.RegisterManager(NewComputeManager(pool))
	start := time.Date(2003, 6, 16, 9, 0, 0, 0, time.UTC)
	end := start.Add(time.Hour)

	h1, err := s.Create(`&(reservation-type="compute")(count=2)`, start, end, "keep")
	if err != nil {
		t.Fatal(err)
	}
	h2, err := s.Create(`&(reservation-type="compute")(count=2)`, start, end, "drop")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Cancel(h2); err != nil {
		t.Fatal(err)
	}

	if got := s.PruneCanceled(); got != 1 {
		t.Fatalf("PruneCanceled = %d, want 1", got)
	}
	if got := s.PruneCanceled(); got != 0 {
		t.Fatalf("second PruneCanceled = %d, want 0", got)
	}
	if _, err := s.Get(h2); !errors.Is(err, ErrUnknownHandle) {
		t.Errorf("Get(pruned) = %v, want ErrUnknownHandle", err)
	}
	if r, err := s.Get(h1); err != nil || r.Status == StatusCanceled {
		t.Errorf("live reservation disturbed: %v, %v", r, err)
	}
	if n := len(s.Reservations()); n != 1 {
		t.Errorf("Reservations after prune = %d, want 1", n)
	}
}

// cancelFailRM reserves anything under one token shared by every
// instance and refuses every Cancel, logging the order it was asked in.
type cancelFailRM struct {
	typ string
	log *[]string
}

func (m cancelFailRM) Type() string { return m.typ }
func (m cancelFailRM) Reserve(*rsl.Node, time.Time, time.Time, string) (string, error) {
	return "t1", nil
}
func (m cancelFailRM) Modify(string, *rsl.Node) error { return nil }
func (m cancelFailRM) Cancel(string) error {
	*m.log = append(*m.log, m.typ)
	return fmt.Errorf("%s refused the cancel", m.typ)
}

// TestCancelPartsInTypeOrder: a co-allocation's parts are cancelled in
// reservation-type order, whatever the map order of Parts, so with two
// failing parts the same error comes back every time — even when both
// managers issued the same token.
func TestCancelPartsInTypeOrder(t *testing.T) {
	const req = `+(&(reservation-type="network")(bandwidth=10))(&(reservation-type="compute")(count=1))`
	for i := 0; i < 50; i++ {
		var log []string
		s := NewSystem()
		s.RegisterManager(cancelFailRM{typ: "network", log: &log})
		s.RegisterManager(cancelFailRM{typ: "compute", log: &log})
		h, err := s.Create(req, t0, tEnd, "")
		if err != nil {
			t.Fatal(err)
		}
		err = s.Cancel(h)
		if err == nil || err.Error() != "compute refused the cancel" {
			t.Fatalf("run %d: Cancel = %v, want compute's refusal", i, err)
		}
		if strings.Join(log, ",") != "compute,network" {
			t.Fatalf("run %d: cancel order %v, want compute then network", i, log)
		}
	}
}

// bindFailRM is cancelFailRM that is also a Binder refusing every Bind
// and Unbind.
type bindFailRM struct{ cancelFailRM }

func (m bindFailRM) Bind(string) error   { return fmt.Errorf("%s refused the bind", m.typ) }
func (m bindFailRM) Unbind(string) error { return fmt.Errorf("%s refused the unbind", m.typ) }

// TestBindPartsInTypeOrder: Bind and Unbind walk a co-allocation's parts
// in reservation-type order like Cancel, so with two failing binders that
// issued the same token the same error comes back every time.
func TestBindPartsInTypeOrder(t *testing.T) {
	const req = `+(&(reservation-type="network")(bandwidth=10))(&(reservation-type="compute")(count=1))`
	for i := 0; i < 50; i++ {
		var log []string
		s := NewSystem()
		s.RegisterManager(bindFailRM{cancelFailRM{typ: "network", log: &log}})
		s.RegisterManager(bindFailRM{cancelFailRM{typ: "compute", log: &log}})
		h, err := s.Create(req, t0, tEnd, "")
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Bind(h); err == nil || !strings.HasSuffix(err.Error(), ": compute refused the bind") {
			t.Fatalf("run %d: Bind = %v, want compute's refusal", i, err)
		}
		if err := s.Unbind(h); err == nil || !strings.HasSuffix(err.Error(), ": compute refused the unbind") {
			t.Fatalf("run %d: Unbind = %v, want compute's refusal", i, err)
		}
	}
}
