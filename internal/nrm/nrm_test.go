package nrm

import (
	"errors"
	"math"
	"testing"
	"time"
)

var (
	t0   = time.Date(2003, 6, 16, 9, 0, 0, 0, time.UTC)
	tEnd = t0.Add(5 * time.Hour)
)

// paperTopology builds the §5.6 network: site A (the SGI machine), site B
// (the database), site C (the second scientist group), with a 1000 Mbps
// B—A link and a 100 Mbps C—A link.
func paperTopology(t *testing.T) *Topology {
	t.Helper()
	topo := NewTopology()
	if err := topo.AddDomain("site-a", "192.200.168.0/24"); err != nil {
		t.Fatal(err)
	}
	if err := topo.AddDomain("site-b", "135.200.50.0/24"); err != nil {
		t.Fatal(err)
	}
	if err := topo.AddDomain("site-c", "10.10.0.0/16"); err != nil {
		t.Fatal(err)
	}
	if err := topo.AddLink("site-a", "site-b", 1000); err != nil {
		t.Fatal(err)
	}
	if err := topo.AddLink("site-a", "site-c", 100); err != nil {
		t.Fatal(err)
	}
	return topo
}

func TestDomainOf(t *testing.T) {
	topo := paperTopology(t)
	tests := []struct {
		ip, want string
	}{
		{"192.200.168.33", "site-a"},
		{" 135.200.50.101 ", "site-b"},
		{"10.10.3.4", "site-c"},
	}
	for _, tt := range tests {
		got, err := topo.DomainOf(tt.ip)
		if err != nil || got != tt.want {
			t.Errorf("DomainOf(%q) = %q, %v; want %q", tt.ip, got, err, tt.want)
		}
	}
	if _, err := topo.DomainOf("8.8.8.8"); !errors.Is(err, ErrUnknownDomain) {
		t.Errorf("uncovered IP err = %v", err)
	}
	if _, err := topo.DomainOf("not-an-ip"); err == nil {
		t.Error("bad IP accepted")
	}
}

func TestTopologyValidation(t *testing.T) {
	topo := NewTopology()
	if err := topo.AddDomain("x", "not-a-cidr"); err == nil {
		t.Error("bad CIDR accepted")
	}
	if err := topo.AddLink("a", "b", 100); !errors.Is(err, ErrUnknownDomain) {
		t.Errorf("link between unknown domains err = %v", err)
	}
	if err := topo.AddDomain("a", "10.0.0.0/8"); err != nil {
		t.Fatal(err)
	}
	if err := topo.AddLink("a", "b", 100); !errors.Is(err, ErrUnknownDomain) {
		t.Errorf("link to unknown domain err = %v", err)
	}
}

func TestPath(t *testing.T) {
	topo := paperTopology(t)
	p, err := topo.Path("site-b", "site-c")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"site-b", "site-a", "site-c"}
	if len(p) != 3 || p[0] != want[0] || p[1] != want[1] || p[2] != want[2] {
		t.Fatalf("Path = %v, want %v", p, want)
	}
	self, err := topo.Path("site-a", "site-a")
	if err != nil || len(self) != 1 {
		t.Fatalf("self Path = %v, %v", self, err)
	}
	if err := topo.AddDomain("island", "172.16.0.0/12"); err != nil {
		t.Fatal(err)
	}
	if _, err := topo.Path("site-a", "island"); !errors.Is(err, ErrNoRoute) {
		t.Errorf("unreachable Path err = %v", err)
	}
	if _, err := topo.Path("ghost", "site-a"); !errors.Is(err, ErrUnknownDomain) {
		t.Errorf("unknown src err = %v", err)
	}
	if _, err := topo.Path("site-a", "ghost"); !errors.Is(err, ErrUnknownDomain) {
		t.Errorf("unknown dst err = %v", err)
	}
}

func TestReserveSingleHop(t *testing.T) {
	topo := paperTopology(t)
	m := NewManager("site-a", topo)
	// SLA_net1: 622 Mbps from site B to site A.
	flow, err := m.Reserve("135.200.50.101", "192.200.168.33", 622, t0, tEnd, "SLA_net1")
	if err != nil {
		t.Fatalf("Reserve: %v", err)
	}
	if n := len(m.flows[flow.ID].links); n != 1 {
		t.Fatalf("flow crosses %d links, want 1", n)
	}
	l, _ := topo.Link("site-a", "site-b")
	if got := l.Pool.InUse(t0).BandwidthMbps; got != 622 {
		t.Errorf("link in use = %g, want 622", got)
	}
	// Second reservation exceeding the remaining 378 fails.
	if _, err := m.Reserve("135.200.50.101", "192.200.168.33", 400, t0, tEnd, "x"); !errors.Is(err, ErrInsufficientBandwidth) {
		t.Fatalf("over-reserve err = %v", err)
	}
	if err := m.Release(flow.ID); err != nil {
		t.Fatalf("Release: %v", err)
	}
	if got := l.Pool.InUse(t0).BandwidthMbps; got != 0 {
		t.Errorf("link in use after release = %g", got)
	}
	if err := m.Release(flow.ID); !errors.Is(err, ErrUnknownFlow) {
		t.Errorf("double release err = %v", err)
	}
}

func TestReserveMultiHopAtomic(t *testing.T) {
	topo := paperTopology(t)
	m := NewManager("site-b", topo)
	// B -> C crosses both links; the C-A link only has 100 Mbps, so a
	// 200 Mbps request must fail AND leave the B-A link untouched.
	if _, err := m.Reserve("135.200.50.101", "10.10.3.4", 200, t0, tEnd, ""); !errors.Is(err, ErrInsufficientBandwidth) {
		t.Fatalf("err = %v", err)
	}
	ab, _ := topo.Link("site-a", "site-b")
	if got := ab.Pool.InUse(t0).BandwidthMbps; got != 0 {
		t.Fatalf("rollback failed: B-A link holds %g Mbps", got)
	}
	// A fitting request reserves on both links.
	flow, err := m.Reserve("135.200.50.101", "10.10.3.4", 50, t0, tEnd, "")
	if err != nil {
		t.Fatal(err)
	}
	ac, _ := topo.Link("site-a", "site-c")
	if ab.Pool.InUse(t0).BandwidthMbps != 50 || ac.Pool.InUse(t0).BandwidthMbps != 50 {
		t.Fatal("multi-hop reservation did not claim both links")
	}
	if n := len(m.flows[flow.ID].links); n != 2 {
		t.Fatalf("flow crosses %d links, want 2", n)
	}
}

func TestReserveValidation(t *testing.T) {
	topo := paperTopology(t)
	m := NewManager("site-a", topo)
	if _, err := m.Reserve("192.200.168.33", "135.200.50.101", 0, t0, tEnd, ""); err == nil {
		t.Error("zero bandwidth accepted")
	}
	if _, err := m.Reserve("8.8.8.8", "135.200.50.101", 10, t0, tEnd, ""); !errors.Is(err, ErrUnknownDomain) {
		t.Errorf("unknown src err = %v", err)
	}
	if _, err := m.Reserve("192.200.168.33", "8.8.8.8", 10, t0, tEnd, ""); !errors.Is(err, ErrUnknownDomain) {
		t.Errorf("unknown dst err = %v", err)
	}
}

func TestMeasureHealthy(t *testing.T) {
	topo := paperTopology(t)
	m := NewManager("site-a", topo)
	m.PerHopDelayMS = 10
	flow, err := m.Reserve("135.200.50.101", "192.200.168.33", 10, t0, tEnd, "")
	if err != nil {
		t.Fatal(err)
	}
	meas, err := m.Measure(flow.ID)
	if err != nil {
		t.Fatal(err)
	}
	if meas.BandwidthMbps != 10 || meas.DelayMS != 10 || meas.LossPct != 0 {
		t.Errorf("Measurement = %+v", meas)
	}
	if _, err := m.Measure("ghost"); !errors.Is(err, ErrUnknownFlow) {
		t.Errorf("Measure unknown err = %v", err)
	}
}

func TestCongestionDegradesAndNotifies(t *testing.T) {
	topo := paperTopology(t)
	m := NewManager("site-a", topo)
	flow, err := m.Reserve("135.200.50.101", "192.200.168.33", 100, t0, tEnd, "SLA_net1")
	if err != nil {
		t.Fatal(err)
	}
	var notified []Measurement
	m.Subscribe(func(f Flow, meas Measurement) {
		if f.ID != flow.ID {
			t.Errorf("notified for wrong flow %s", f.ID)
		}
		notified = append(notified, meas)
	})

	// Healthy: no degradation.
	if got := m.CheckAll(t0); len(got) != 0 {
		t.Fatalf("healthy CheckAll = %v", got)
	}

	// Inject 50% congestion with loss and delay.
	if err := topo.SetCongestion("site-a", "site-b", Congestion{
		BandwidthFactor: 0.5, ExtraDelayMS: 20, LossPct: 12,
	}); err != nil {
		t.Fatal(err)
	}
	degraded := m.CheckAll(t0)
	if len(degraded) != 1 {
		t.Fatalf("degraded = %v", degraded)
	}
	meas := degraded[0]
	if math.Abs(meas.BandwidthMbps-50) > 1e-9 {
		t.Errorf("degraded bandwidth = %g, want 50", meas.BandwidthMbps)
	}
	if meas.DelayMS != 25 { // 5 base + 20 extra
		t.Errorf("delay = %g, want 25", meas.DelayMS)
	}
	if meas.LossPct != 12 {
		t.Errorf("loss = %g, want 12", meas.LossPct)
	}
	if len(notified) != 1 {
		t.Fatalf("notifications = %d, want 1", len(notified))
	}

	// Clear congestion (recovery): no further degradation.
	if err := topo.SetCongestion("site-a", "site-b", Congestion{}); err != nil {
		t.Fatal(err)
	}
	if got := m.CheckAll(t0); len(got) != 0 {
		t.Fatalf("CheckAll after recovery = %v", got)
	}
	if err := topo.SetCongestion("site-a", "island", Congestion{}); !errors.Is(err, ErrNoRoute) {
		t.Errorf("SetCongestion missing link err = %v", err)
	}
}

func TestCheckAllSkipsInactiveFlows(t *testing.T) {
	topo := paperTopology(t)
	m := NewManager("site-a", topo)
	if _, err := m.Reserve("135.200.50.101", "192.200.168.33", 100, t0.Add(time.Hour), tEnd, ""); err != nil {
		t.Fatal(err)
	}
	if err := topo.SetCongestion("site-a", "site-b", Congestion{BandwidthFactor: 0.1}); err != nil {
		t.Fatal(err)
	}
	// Flow not yet started: no degradation reported at t0.
	if got := m.CheckAll(t0); len(got) != 0 {
		t.Fatalf("CheckAll before start = %v", got)
	}
	// After expiry: also skipped.
	if got := m.CheckAll(tEnd.Add(time.Hour)); len(got) != 0 {
		t.Fatalf("CheckAll after end = %v", got)
	}
}

func TestLossCappedAt100(t *testing.T) {
	topo := paperTopology(t)
	m := NewManager("site-b", topo)
	flow, err := m.Reserve("135.200.50.101", "10.10.3.4", 10, t0, tEnd, "")
	if err != nil {
		t.Fatal(err)
	}
	for _, pair := range [][2]string{{"site-a", "site-b"}, {"site-a", "site-c"}} {
		if err := topo.SetCongestion(pair[0], pair[1], Congestion{LossPct: 70}); err != nil {
			t.Fatal(err)
		}
	}
	meas, err := m.Measure(flow.ID)
	if err != nil {
		t.Fatal(err)
	}
	if meas.LossPct != 100 {
		t.Errorf("loss = %g, want capped 100", meas.LossPct)
	}
}

func TestFlowsSnapshot(t *testing.T) {
	topo := paperTopology(t)
	m := NewManager("site-a", topo)
	for i := 0; i < 3; i++ {
		if _, err := m.Reserve("135.200.50.101", "192.200.168.33", 10, t0, tEnd, ""); err != nil {
			t.Fatal(err)
		}
	}
	fs := m.Flows()
	if len(fs) != 3 {
		t.Fatalf("Flows = %d", len(fs))
	}
	for i := 1; i < len(fs); i++ {
		if fs[i-1].ID >= fs[i].ID {
			t.Fatal("Flows not sorted")
		}
	}
	if _, err := m.Flow("ghost"); !errors.Is(err, ErrUnknownFlow) {
		t.Errorf("Flow unknown err = %v", err)
	}
}

func TestDisjointIntervalsShareLink(t *testing.T) {
	topo := paperTopology(t)
	m := NewManager("site-a", topo)
	if _, err := m.Reserve("135.200.50.101", "192.200.168.33", 800, t0, t0.Add(time.Hour), ""); err != nil {
		t.Fatal(err)
	}
	// Same 800 Mbps in a later window fits.
	if _, err := m.Reserve("135.200.50.101", "192.200.168.33", 800, t0.Add(time.Hour), tEnd, ""); err != nil {
		t.Fatalf("disjoint reservation rejected: %v", err)
	}
}
