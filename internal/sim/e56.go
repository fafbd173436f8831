package sim

import (
	"fmt"
	"strings"
	"time"

	"gqosm/internal/clockx"
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
	// Report is the engine's verdict on the run: an oracle pass at every
	// checkpoint, the drain and the capacity_restored gate.
	Report *Report
}

// RunE56 replays the worked example on the engine, one checkpoint per
// step, and returns the per-checkpoint pool table. The monitor's ticks
// end every session: SLA_comp's first run at t1, its second at t4, the
// network halves at t5.
func RunE56() (*E56Result, error) {
	plan := core.CapacityPlan{
		Guaranteed: resource.Capacity{CPU: 15, MemoryMB: 6144, DiskGB: 120, BandwidthMbps: 700},
		Adaptive:   resource.Capacity{CPU: 6, MemoryMB: 2048, DiskGB: 40, BandwidthMbps: 200},
		BestEffort: resource.Capacity{CPU: 5, MemoryMB: 2048, DiskGB: 40, BandwidthMbps: 200},
	}
	net, err := e56Topology()
	if err != nil {
		return nil, err
	}
	const confirm = time.Hour
	topo, err := newTopology(topoConfig{Base: stack.Config{Plan: plan, Topology: net, ConfirmWindow: confirm}})
	if err != nil {
		return nil, err
	}
	defer topo.close()
	w := &e56Script{b: topo.members[0].Broker, clock: topo.clock, res: &E56Result{NetworkOK: true}}
	e := &engine{topo: topo, work: w, steps: len(e56Events), quiesceEvery: 1, lifecycle: confirm}
	if err := e.run(); err != nil {
		return nil, err
	}
	if w.err != nil {
		return nil, w.err
	}
	w.res.Report = e.report("experiment", map[string]any{"experiment": "E56"}).Seal()
	return w.res, nil
}

// e56Script is the worked example as an engine workload: step i moves
// the clock to hour i, plays checkpoint ti's events and records its row.
type e56Script struct {
	b     *core.Broker
	clock *clockx.Manual
	res   *E56Result
	err   error    // the first failed event; later steps do nothing
	net   []sla.ID // SLA_net1, SLA_net2
}

// e56Events describe the checkpoints, t0 first.
var e56Events = []string{
	"SLA established; SLA_comp holds 10 nodes; best-effort demand 11 nodes",
	"first run done; 4-node background SLA active; best-effort surges to 18 nodes",
	"three C_G processors fail (C_G 15→12); SLA_comp due: 10 nodes honored from C_A",
	"failed processors recover; best effort re-borrows idle capacity",
	"SLA_comp validity period complete; released nodes flow back to best effort",
	"network sub-SLAs expire; session cleared",
}

func (w *e56Script) step(i int) {
	if w.err != nil {
		return
	}
	label := fmt.Sprintf("t%d", i)
	w.clock.Set(e56Hour(i))
	if w.err = w.play(i); w.err != nil {
		w.err = fmt.Errorf("%s: %w", label, w.err)
		return
	}
	whole := true
	for _, doc := range w.b.Sessions(nil) {
		live := !doc.State.Terminal() && doc.State != sla.StateProposed
		if live && !doc.Spec.Accepts(doc.Allocated) {
			whole = false
		}
	}
	w.res.Rows = append(w.res.Rows, E56Row{
		Label: label, Event: e56Events[i], Pools: w.b.Allocator().Snapshot(), GuaranteedWhole: whole,
	})
}

// play runs checkpoint ti's events.
func (w *e56Script) play(i int) error {
	switch i {
	case 0:
		// The composite SLA's network halves, valid the whole period.
		net1, err := w.guarantee("site-b-db", netSpec(622, "135.200.50.101", "192.200.168.33"), 5)
		if err != nil {
			return fmt.Errorf("SLA_net1: %w", err)
		}
		net2, err := w.guarantee("site-c-scientists", netSpec(45, "10.10.3.4", "192.200.168.33"), 5)
		if err != nil {
			return fmt.Errorf("SLA_net2: %w", err)
		}
		w.net = []sla.ID{net1, net2}
		// SLA_comp: the first simulation run holds 10 nodes over [t0, t1).
		if _, err := w.guarantee("site-a-scientists", compSpec(10), 1); err != nil {
			return fmt.Errorf("SLA_comp (first run): %w", err)
		}
		// Best-effort background demand: 11 nodes at t0.
		return w.b.BestEffortRequest("be-base", resource.Nodes(11))
	case 1:
		// The first compute run completed (the tick at t1 expired it); a
		// 4-node guaranteed background SLA begins; best-effort demand
		// surges to 18 ("best effort users use resources in an
		// unpredicted pattern").
		if _, err := w.guarantee("site-a-background", compOnlyNodes(4), 5); err != nil {
			return fmt.Errorf("background SLA: %w", err)
		}
		return w.b.BestEffortRequest("be-surge", resource.Nodes(7))
	case 2:
		// Three guaranteed-pool processors become inaccessible AND
		// SLA_comp is due again: 10 nodes allocated despite the failure.
		w.res.Preemptions += len(w.b.NotifyFailure(resource.Nodes(3)))
		if _, err := w.guarantee("site-a-scientists", compSpec(10), 4); err != nil {
			return fmt.Errorf("SLA_comp (second run) under failure: %w", err)
		}
	case 3:
		// The processors become accessible again; best effort re-grows
		// into the recovered capacity.
		w.b.NotifyFailure(resource.Capacity{})
		return w.regrow("be-regrow")
	case 4:
		// SLA_comp completed its validity period at this tick; scenario 2
		// returns the capacity to the grid.
		return w.regrow("be-tail")
	case 5:
		// The network halves expired at this tick; they must have stayed
		// whole until then.
		for _, id := range w.net {
			if doc, err := w.b.Session(id); err != nil || doc.State != sla.StateExpired {
				w.res.NetworkOK = false
			}
		}
		for _, e := range w.b.Events() {
			w.res.Log = append(w.res.Log, e.String())
		}
	}
	return nil
}

// drain returns the best-effort grants; the guaranteed sessions all
// expired by t5.
func (w *e56Script) drain() {
	_, grants, _ := w.b.Allocator().ExportAux()
	for _, g := range grants {
		_ = w.b.BestEffortRelease(g.User)
	}
}

func (w *e56Script) tally(*Outcome) {}

func e56Hour(h int) time.Time { return Epoch.Add(time.Duration(h) * time.Hour) }

// guarantee establishes a guaranteed SLA for client, valid from now
// until hour end.
func (w *e56Script) guarantee(client string, spec sla.Spec, end int) (sla.ID, error) {
	return establish(w.b, core.Request{Service: "simulation", Client: client, Class: sla.ClassGuaranteed,
		Spec: spec, Start: w.clock.Now(), End: e56Hour(end)})
}

// regrow grants client whatever best-effort capacity is idle.
func (w *e56Script) regrow(client string) error {
	if idle := w.b.Allocator().AvailableBestEffort(); idle.CPU > 0 {
		return w.b.BestEffortRequest(client, resource.Nodes(idle.CPU))
	}
	return nil
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
