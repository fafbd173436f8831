package gara

import (
	"testing"
	"time"

	"gqosm/internal/dsrt"
	"gqosm/internal/nrm"
	"gqosm/internal/resource"
	"gqosm/internal/rsl"
)

var (
	mgrT0 = time.Date(2003, time.June, 16, 9, 0, 0, 0, time.UTC)
	mgrT1 = mgrT0.Add(4 * time.Hour)
)

// flow is the nrm flow backing a token, following Modify aliases.
func (m *NetworkManager) flow(token string) (nrm.Flow, error) {
	return m.nrm.Flow(nrm.FlowID(m.resolve(token)))
}

func mustRSL(t *testing.T, src string) *rsl.Node {
	t.Helper()
	n, err := rsl.Parse(src)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	return n
}

func TestComputeManagerLifecycle(t *testing.T) {
	pool := resource.NewPool("sgi", resource.Capacity{CPU: 16, MemoryMB: 4096, DiskGB: 100})
	m := NewComputeManager(pool)
	if m.Type() != TypeCompute {
		t.Fatalf("type = %q", m.Type())
	}

	token, err := m.Reserve(mustRSL(t, `&(count=4)(memory=512)(disk=10)`), mgrT0, mgrT1, "job-1")
	if err != nil {
		t.Fatal(err)
	}
	want := resource.Capacity{CPU: 4, MemoryMB: 512, DiskGB: 10}
	if use := pool.InUse(mgrT0); !use.Equal(want) {
		t.Fatalf("in use %v, want %v", use, want)
	}

	if err := m.Modify(token, mustRSL(t, `&(count=2)(memory=256)(disk=5)`)); err != nil {
		t.Fatal(err)
	}
	want = resource.Capacity{CPU: 2, MemoryMB: 256, DiskGB: 5}
	if use := pool.InUse(mgrT0); !use.Equal(want) {
		t.Fatalf("after modify: in use %v, want %v", use, want)
	}

	if err := m.Cancel(token); err != nil {
		t.Fatal(err)
	}
	if use := pool.InUse(mgrT0); !use.IsZero() {
		t.Fatalf("after cancel: in use %v, want zero", use)
	}
}

func TestComputeManagerRejectsEmptyAndOversized(t *testing.T) {
	pool := resource.NewPool("sgi", resource.Capacity{CPU: 8})
	m := NewComputeManager(pool)
	if _, err := m.Reserve(mustRSL(t, `&(reservation-type="compute")`), mgrT0, mgrT1, "t"); err == nil {
		t.Fatal("empty request admitted")
	}
	if _, err := m.Reserve(mustRSL(t, `&(count=9)`), mgrT0, mgrT1, "t"); err == nil {
		t.Fatal("over-capacity request admitted")
	}
}

func TestStorageManagerLifecycle(t *testing.T) {
	pool := resource.NewPool("raid", resource.Capacity{DiskGB: 50})
	m := NewStorageManager(pool)
	if m.Type() != TypeStorage {
		t.Fatalf("type = %q", m.Type())
	}
	if _, err := m.Reserve(mustRSL(t, `&(reservation-type="storage")`), mgrT0, mgrT1, "t"); err == nil {
		t.Fatal("zero-disk request admitted")
	}
	token, err := m.Reserve(mustRSL(t, `&(disk=30)`), mgrT0, mgrT1, "t")
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Modify(token, mustRSL(t, `&(disk=45)`)); err != nil {
		t.Fatal(err)
	}
	if use := pool.InUse(mgrT0); use.DiskGB != 45 {
		t.Fatalf("disk in use %v, want 45", use.DiskGB)
	}
	if err := m.Cancel(token); err != nil {
		t.Fatal(err)
	}
	if use := pool.InUse(mgrT0); !use.IsZero() {
		t.Fatalf("after cancel: %v", use)
	}
}

func newTestNRM(t *testing.T) *nrm.Manager {
	t.Helper()
	topo := nrm.NewTopology()
	if err := topo.AddDomain("site-a", "192.200.168.0/24"); err != nil {
		t.Fatal(err)
	}
	if err := topo.AddDomain("site-b", "135.200.50.0/24"); err != nil {
		t.Fatal(err)
	}
	if err := topo.AddLink("site-a", "site-b", 100); err != nil {
		t.Fatal(err)
	}
	return nrm.NewManager("site-a", topo)
}

func TestNetworkManagerLifecycleAndAliases(t *testing.T) {
	m := NewNetworkManager(newTestNRM(t))
	if m.Type() != TypeNetwork {
		t.Fatalf("type = %q", m.Type())
	}
	if _, err := m.Reserve(mustRSL(t, `&(bandwidth=10)`), mgrT0, mgrT1, "t"); err == nil {
		t.Fatal("request without endpoints admitted")
	}

	spec := `&(source-ip="192.200.168.33")(dest-ip="135.200.50.101")(bandwidth=10)`
	token, err := m.Reserve(mustRSL(t, spec), mgrT0, mgrT1, "flow-1")
	if err != nil {
		t.Fatal(err)
	}
	flow, err := m.flow(token)
	if err != nil {
		t.Fatal(err)
	}
	if flow.Mbps != 10 {
		t.Fatalf("flow at %v Mbps, want 10", flow.Mbps)
	}

	// Modify re-reserves under a fresh flow ID; the original token must
	// keep resolving through the alias map.
	if err := m.Modify(token, mustRSL(t, `&(bandwidth=25)`)); err != nil {
		t.Fatal(err)
	}
	flow2, err := m.flow(token)
	if err != nil {
		t.Fatal(err)
	}
	if flow2.Mbps != 25 {
		t.Fatalf("modified flow at %v Mbps, want 25", flow2.Mbps)
	}
	if flow2.ID == flow.ID {
		t.Fatal("expected a fresh flow ID after modify")
	}

	// A second modify chains the alias one level deeper.
	if err := m.Modify(token, mustRSL(t, `&(bandwidth=40)`)); err != nil {
		t.Fatal(err)
	}
	if err := m.Cancel(token); err != nil {
		t.Fatalf("cancel via aliased token: %v", err)
	}
	if _, err := m.flow(token); err == nil {
		t.Fatal("flow survived cancel")
	}
}

func TestNetworkManagerModifyRestoresOnFailure(t *testing.T) {
	m := NewNetworkManager(newTestNRM(t))
	spec := `&(source-ip="192.200.168.33")(dest-ip="135.200.50.101")(bandwidth=60)`
	token, err := m.Reserve(mustRSL(t, spec), mgrT0, mgrT1, "flow-1")
	if err != nil {
		t.Fatal(err)
	}
	// 200 Mbps exceeds the 100 Mbps link: the modify must fail and the
	// original 60 Mbps reservation must survive.
	if err := m.Modify(token, mustRSL(t, `&(bandwidth=200)`)); err == nil {
		t.Fatal("over-capacity modify succeeded")
	}
	flow, err := m.flow(token)
	if err != nil {
		t.Fatalf("original flow lost after failed modify: %v", err)
	}
	if flow.Mbps != 60 {
		t.Fatalf("restored flow at %v Mbps, want 60", flow.Mbps)
	}
}

func TestDSRTManagerDirectLifecycle(t *testing.T) {
	sched := dsrt.New(dsrt.Config{Processors: 2}, nil)
	m := NewDSRTManager(sched)
	if m.Type() != TypeCPUShare {
		t.Fatalf("type = %q", m.Type())
	}

	token, err := m.Reserve(mustRSL(t, `&(class="PCPT")(share=0.5)(period=30)`), mgrT0, mgrT1, "t")
	if err != nil {
		t.Fatal(err)
	}
	if got := sched.Reserved(); got != 0.5 {
		t.Fatalf("reserved %v, want 0.5", got)
	}
	if err := m.Modify(token, mustRSL(t, `&(share=0.75)`)); err != nil {
		t.Fatal(err)
	}
	if got := sched.Reserved(); got != 0.75 {
		t.Fatalf("after modify: reserved %v, want 0.75", got)
	}
	// Bind/Unbind are no-ops for DSRT; the registration is the contract.
	if err := m.Bind(token); err != nil {
		t.Fatal(err)
	}
	if err := m.Unbind(token); err != nil {
		t.Fatal(err)
	}
	if err := m.Cancel(token); err != nil {
		t.Fatal(err)
	}
	if got := sched.Reserved(); got != 0 {
		t.Fatalf("after cancel: reserved %v, want 0", got)
	}
}

func TestDSRTManagerBadTokens(t *testing.T) {
	m := NewDSRTManager(dsrt.New(dsrt.Config{}, nil))
	if err := m.Modify("not-a-pid", mustRSL(t, `&(share=0.1)`)); err == nil {
		t.Fatal("modify with bad token succeeded")
	}
	if err := m.Cancel("not-a-pid"); err == nil {
		t.Fatal("cancel with bad token succeeded")
	}
	// Over-capacity admission must fail (1 CPU, util bound 1.0).
	if _, err := m.Reserve(mustRSL(t, `&(class="PVPT")(share=1.5)(period=10)`), mgrT0, mgrT1, "t"); err == nil {
		t.Fatal("over-capacity share admitted")
	}
}
