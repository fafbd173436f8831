package sim

import (
	"fmt"
	"strings"
	"time"

	"gqosm/internal/core"
	"gqosm/internal/nrm"
	"gqosm/internal/resource"
	"gqosm/internal/sla"
	"gqosm/internal/stack"
)

// This file replays the paper's §5.6 worked example (experiment E56): the
// collaborative simulation over sites A/B/C with the composite SLA
// (SLA_net1: 622 Mbps B→A, SLA_net2: 45 Mbps C→A, SLA_comp: 10 processor
// nodes + 2 GB memory + 15 GB disk on the site-A machine), the 15+6+5
// partition of the 26 Grid-visible processors, the best-effort surge, the
// t2 failure of three guaranteed-pool processors, the t3 recovery, and the
// SLA expiry with scenario-2 upgrades.
//
// Reconstruction note (see DESIGN.md §4): the camera-ready measurement
// list is OCR-corrupted; the unambiguous digits are reproduced exactly by
// this event script with the accounting rule "best effort fills C_B, then
// idle C_G, then idle C_A":
//
//	t0: G pool g=10 b=5 (paper: "g = 10, b = 5")
//	t1: G pool g=4  b=11 (paper: "g = 4, b = 11")
//	t3: G pool g=14 b=1  (paper: "g = 14, b = 1")
//	t4: G pool g=4  b=11 (paper: "g = 4, b = 11")

// E56Row is one checkpoint of the timeline.
type E56Row struct {
	Label string // "t0" … "t5"
	Event string // what happened entering this checkpoint
	Pools []core.PoolUsage
	// GuaranteedWhole reports that every guaranteed session holds its
	// full SLA capacity (the paper's headline at t2).
	GuaranteedWhole bool
}

// E56Result is the full replay.
type E56Result struct {
	Rows []E56Row
	// NetworkOK reports that the two network sub-SLAs stayed whole for
	// the whole period.
	NetworkOK bool
	// Preemptions counts best-effort reductions over the run.
	Preemptions int
	// Log is the broker activity transcript (the Fig. 6 console).
	Log []string
}

// RunE56 replays the worked example and returns the per-checkpoint pool
// table.
func RunE56() (*E56Result, error) {
	plan := core.CapacityPlan{
		Guaranteed: resource.Capacity{CPU: 15, MemoryMB: 6144, DiskGB: 120, BandwidthMbps: 700},
		Adaptive:   resource.Capacity{CPU: 6, MemoryMB: 2048, DiskGB: 40, BandwidthMbps: 200},
		BestEffort: resource.Capacity{CPU: 5, MemoryMB: 2048, DiskGB: 40, BandwidthMbps: 200},
	}
	topo, err := e56Topology()
	if err != nil {
		return nil, err
	}
	// No monitor: the script expires SLA_comp itself at t4, and a tick at
	// that reading would expire it first ("already expired"). The §5.6
	// topology moves onto the engine with the rest of E56 (ROADMAP item 6).
	cl, err := NewCluster(stack.Config{Plan: plan, Topology: topo, ConfirmWindow: time.Hour})
	if err != nil {
		return nil, err
	}
	defer cl.Close()
	b := cl.Broker

	hour := func(h int) time.Time { return Epoch.Add(time.Duration(h) * time.Hour) }
	res := &E56Result{NetworkOK: true}

	establish := func(req core.Request) (sla.ID, error) {
		offer, err := b.RequestService(req)
		if err != nil {
			return "", err
		}
		if err := b.Accept(offer.SLA.ID); err != nil {
			return "", err
		}
		return offer.SLA.ID, nil
	}

	// The composite SLA's network halves, valid the whole period.
	net1 := core.Request{
		Service: "simulation", Client: "site-b-db", Class: sla.ClassGuaranteed,
		Spec:  netSpec(622, "135.200.50.101", "192.200.168.33"),
		Start: hour(0), End: hour(5),
	}
	net2 := core.Request{
		Service: "simulation", Client: "site-c-scientists", Class: sla.ClassGuaranteed,
		Spec:  netSpec(45, "10.10.3.4", "192.200.168.33"),
		Start: hour(0), End: hour(5),
	}
	net1ID, err := establish(net1)
	if err != nil {
		return nil, fmt.Errorf("SLA_net1: %w", err)
	}
	net2ID, err := establish(net2)
	if err != nil {
		return nil, fmt.Errorf("SLA_net2: %w", err)
	}

	// SLA_comp: the first simulation run holds 10 nodes over [t0, t1).
	comp1, err := establish(core.Request{
		Service: "simulation", Client: "site-a-scientists", Class: sla.ClassGuaranteed,
		Spec:  compSpec(10),
		Start: hour(0), End: hour(1),
	})
	if err != nil {
		return nil, fmt.Errorf("SLA_comp (first run): %w", err)
	}

	// Best-effort background demand: 11 nodes at t0.
	if err := b.BestEffortRequest("be-base", resource.Nodes(11)); err != nil {
		return nil, fmt.Errorf("best-effort base: %w", err)
	}

	checkpoint := func(label, event string) {
		whole := true
		for _, doc := range b.Sessions(nil) {
			live := !doc.State.Terminal() && doc.State != sla.StateProposed
			if live && !doc.Spec.Accepts(doc.Allocated) {
				whole = false
			}
		}
		res.Rows = append(res.Rows, E56Row{
			Label: label, Event: event, Pools: b.Allocator().Snapshot(), GuaranteedWhole: whole,
		})
	}

	checkpoint("t0", "SLA established; SLA_comp holds 10 nodes; best-effort demand 11 nodes")

	// t1: the first compute run completes; a 4-node guaranteed
	// background SLA begins; best-effort demand surges to 18 ("best
	// effort users use resources in an unpredicted pattern").
	cl.Clock.Set(hour(1))
	if err := b.Terminate(comp1, "first simulation run completed"); err != nil {
		return nil, err
	}
	if _, err := establish(core.Request{
		Service: "simulation", Client: "site-a-background", Class: sla.ClassGuaranteed,
		Spec:  compOnlyNodes(4),
		Start: hour(1), End: hour(5),
	}); err != nil {
		return nil, fmt.Errorf("background SLA: %w", err)
	}
	if err := b.BestEffortRequest("be-surge", resource.Nodes(7)); err != nil {
		return nil, fmt.Errorf("best-effort surge: %w", err)
	}
	checkpoint("t1", "first run done; 4-node background SLA active; best-effort surges to 18 nodes")

	// t2: three guaranteed-pool processors become inaccessible AND
	// SLA_comp is due again: 10 nodes allocated despite the failure.
	cl.Clock.Set(hour(2))
	pre := b.NotifyFailure(resource.Nodes(3))
	res.Preemptions += len(pre)
	comp2, err := establish(core.Request{
		Service: "simulation", Client: "site-a-scientists", Class: sla.ClassGuaranteed,
		Spec:  compSpec(10),
		Start: hour(2), End: hour(4),
	})
	if err != nil {
		return nil, fmt.Errorf("SLA_comp (second run) under failure: %w", err)
	}
	checkpoint("t2", "three C_G processors fail (C_G 15→12); SLA_comp due: 10 nodes honored from C_A")

	// t3: the processors become accessible again; best effort re-grows
	// into the recovered capacity.
	cl.Clock.Set(hour(3))
	b.NotifyFailure(resource.Capacity{})
	regrow := b.Allocator().AvailableBestEffort()
	if regrow.CPU > 0 {
		if err := b.BestEffortRequest("be-regrow", resource.Nodes(regrow.CPU)); err != nil {
			return nil, fmt.Errorf("best-effort regrow: %w", err)
		}
	}
	checkpoint("t3", "failed processors recover; best effort re-borrows idle capacity")

	// t4: SLA_comp completes its validity period; scenario 2 returns the
	// capacity to the grid.
	cl.Clock.Set(hour(4))
	if err := b.Expire(comp2); err != nil {
		return nil, err
	}
	if avail := b.Allocator().AvailableBestEffort(); avail.CPU > 0 {
		if err := b.BestEffortRequest("be-tail", resource.Nodes(avail.CPU)); err != nil {
			return nil, fmt.Errorf("best-effort tail: %w", err)
		}
	}
	checkpoint("t4", "SLA_comp validity period complete; released nodes flow back to best effort")

	// t5: the composite SLA's network halves expire; the session clears.
	cl.Clock.Set(hour(5))
	b.ExpireDue()
	checkpoint("t5", "network sub-SLAs expire; session cleared")

	// Network sub-SLAs must have stayed whole until expiry.
	for _, id := range []sla.ID{net1ID, net2ID} {
		doc, err := b.Session(id)
		if err != nil || doc.State != sla.StateExpired {
			res.NetworkOK = false
		}
	}
	for _, e := range b.Events() {
		res.Log = append(res.Log, e.String())
	}
	return res, nil
}

// Table renders the result as the per-checkpoint pool table printed by
// `gridsim -experiment E56`.
func (r *E56Result) Table() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-3s | %-5s %-5s | %-5s %-5s | %-5s %-5s | %-8s | %s\n",
		"t", "G:g", "G:b", "A:g", "A:b", "B:g", "B:b", "SLAs ok", "event")
	sb.WriteString(strings.Repeat("-", 100) + "\n")
	for _, row := range r.Rows {
		g, a, bp := row.Pools[0], row.Pools[1], row.Pools[2]
		fmt.Fprintf(&sb, "%-3s | %-5g %-5g | %-5g %-5g | %-5g %-5g | %-8v | %s\n",
			row.Label,
			g.Guaranteed.CPU, g.BestEffort.CPU,
			a.Guaranteed.CPU, a.BestEffort.CPU,
			bp.Guaranteed.CPU, bp.BestEffort.CPU,
			row.GuaranteedWhole, row.Event)
	}
	return sb.String()
}

func netSpec(mbps float64, src, dst string) sla.Spec {
	s := sla.NewSpec(sla.Exact(resource.BandwidthMbps, mbps))
	s.SourceIP, s.DestIP = src, dst
	s.MaxPacketLossPct = 10
	return s
}

func compSpec(nodes float64) sla.Spec {
	return sla.NewSpec(
		sla.Exact(resource.CPU, nodes),
		sla.Exact(resource.MemoryMB, 2048),
		sla.Exact(resource.DiskGB, 15),
	)
}

func compOnlyNodes(nodes float64) sla.Spec {
	return sla.NewSpec(sla.Exact(resource.CPU, nodes))
}

// e56Topology is the §5.6 three-site network: site-a/b/c with a 1000 Mbps
// B–A link and a 100 Mbps C–A link.
func e56Topology() (*nrm.Topology, error) {
	topo := nrm.NewTopology()
	for _, d := range []struct{ name, cidr string }{
		{"site-a", "192.200.168.0/24"},
		{"site-b", "135.200.50.0/24"},
		{"site-c", "10.10.0.0/16"},
	} {
		if err := topo.AddDomain(d.name, d.cidr); err != nil {
			return nil, err
		}
	}
	if err := topo.AddLink("site-a", "site-b", 1000); err != nil {
		return nil, err
	}
	if err := topo.AddLink("site-a", "site-c", 100); err != nil {
		return nil, err
	}
	return topo, nil
}
