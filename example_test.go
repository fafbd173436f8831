package gqosm_test

import (
	"fmt"
	"time"

	"gqosm"
	"gqosm/internal/core"
	"gqosm/internal/nrm"
	"gqosm/internal/registry"
	"gqosm/internal/sla"
)

// start is the paper's experiment day; every example runs on a manual
// clock from it, so its output repeats byte for byte.
var start = time.Date(2003, 6, 16, 9, 0, 0, 0, time.UTC)

// check stops an example on an error it does not expect.
func check(err error) {
	if err != nil {
		panic(err)
	}
}

// Example_quickstart stands up a single-domain stack in process, negotiates
// a guaranteed SLA, invokes the service, runs an SLA conformance test, and
// terminates: the full Fig. 2 sequence against the public API.
func Example_quickstart() {
	// The §5.6 partition: 26 Grid-visible processors split 15/6/5.
	stack, err := gqosm.NewStack(gqosm.StackConfig{
		Domain: "site-a",
		Clock:  gqosm.NewManualClock(start),
		Plan: gqosm.CapacityPlan{
			Guaranteed: gqosm.Capacity{CPU: 15, MemoryMB: 6144, DiskGB: 120},
			Adaptive:   gqosm.Capacity{CPU: 6, MemoryMB: 2048, DiskGB: 40},
			BestEffort: gqosm.Capacity{CPU: 5, MemoryMB: 2048, DiskGB: 40},
		},
		ConfirmWindow: 10 * time.Minute,
	})
	check(err)
	defer stack.Close()

	// 1. Discovery + negotiation: request 10 nodes, 2 GB, 15 GB for five
	// hours.
	offer, err := stack.Broker.RequestService(gqosm.Request{
		Service: "simulation",
		Client:  "quickstart-client",
		Class:   gqosm.ClassGuaranteed,
		Spec: gqosm.NewSpec(
			gqosm.Exact(gqosm.CPU, 10),
			gqosm.Exact(gqosm.MemoryMB, 2048),
			gqosm.Exact(gqosm.DiskGB, 15),
		),
		Start: start,
		End:   start.Add(5 * time.Hour),
	})
	check(err)
	fmt.Printf("offer: %s at price %.2f (temporarily reserved until %s)\n",
		offer.SLA.ID, offer.Price, offer.Expires.Format("15:04:05"))

	// 2. SLA establishment.
	check(stack.Broker.Accept(offer.SLA.ID))
	doc, err := stack.Broker.Session(offer.SLA.ID)
	check(err)
	out, err := sla.MarshalIndent(sla.EncodeDocument(doc))
	check(err)
	fmt.Printf("\nestablished SLA document:\n%s\n", out)

	// 3. Service invocation: the launched process claims the reservation.
	job, err := stack.Broker.Invoke(offer.SLA.ID)
	check(err)
	fmt.Printf("\nservice running as %s (pid %d)\n", job.ID, job.PID)

	// 4. QoS management: explicit SLA conformance test (Table 3).
	rep, err := stack.Broker.Verify(offer.SLA.ID)
	check(err)
	levels, err := sla.MarshalIndent(rep.XML)
	check(err)
	fmt.Printf("\nconformance test reply:\n%s\n", levels)

	// 5. Clearing.
	check(stack.Broker.Terminate(offer.SLA.ID, "quickstart complete"))

	fmt.Println("\nbroker activity log:")
	for _, e := range stack.Broker.Events() {
		fmt.Println("  " + e.String())
	}
	// Output:
	// offer: site-a-sla-0001 at price 79.86 (temporarily reserved until 09:10:00)
	//
	// established SLA document:
	// <Service_SLA>
	//   <SLA-ID>site-a-sla-0001</SLA-ID>
	//   <Service_Name>simulation</Service_Name>
	//   <QoS_Specification>
	//     <Service-Specific>
	//       <CPU-QoS>10 CPU</CPU-QoS>
	//       <Memory-QoS>2048MB</Memory-QoS>
	//       <Disk-QoS>15GB</Disk-QoS>
	//     </Service-Specific>
	//   </QoS_Specification>
	//   <QoS_Class>Guaranteed</QoS_Class>
	//   <Total_Cost>79.86</Total_Cost>
	// </Service_SLA>
	//
	// service running as job-1 (pid 1001)
	//
	// conformance test reply:
	// <QoS_Levels>
	//   <SLA-ID>site-a-sla-0001</SLA-ID>
	//   <Measured_Computation_QoS>
	//     <CPU-QoS>10 CPU</CPU-QoS>
	//     <Memory-QoS>2048MB</Memory-QoS>
	//     <Disk-QoS>15GB</Disk-QoS>
	//   </Measured_Computation_QoS>
	//   <Conforms>true</Conforms>
	// </QoS_Levels>
	//
	// broker activity log:
	//   09:00:00 [discovery] client "quickstart-client" requests "simulation" class=Guaranteed spec floor cpu=10 memory-mb=2048 disk-gb=15
	//   09:00:00 [offer] (site-a-sla-0001) proposed cpu=10 memory-mb=2048 disk-gb=15 at price 79.86 (expires 09:10:00)
	//   09:00:00 [sla] (site-a-sla-0001) established; resources committed; charged 79.86
	//   09:00:00 [invoke] (site-a-sla-0001) service "simulation" launched as job-1 (pid 1001), reservation claimed
	//   09:00:00 [verify] (site-a-sla-0001) conformance test: conforms=true measured=cpu=10 memory-mb=2048 disk-gb=15
	//   09:00:00 [clearing] (site-a-sla-0001) terminated: quickstart complete
}

// Example_degradation shows scenario 3 (§4): a guaranteed session's network
// QoS collapses when its link congests; the NRM notifies the broker's
// SLA-Verif hook, a violation is recorded and the session switches to its
// negotiated alternative QoS; when the congestion clears the broker
// restores the agreed quality.
func Example_degradation() {
	topo := gqosm.NewTopology()
	check(topo.AddDomain("site-a", "192.200.168.0/24"))
	check(topo.AddDomain("site-c", "10.10.0.0/16"))
	check(topo.AddLink("site-a", "site-c", 100))

	clock := gqosm.NewManualClock(start)
	stack, err := gqosm.NewStack(gqosm.StackConfig{
		Domain: "site-a",
		Clock:  clock,
		Plan: gqosm.CapacityPlan{
			Guaranteed: gqosm.Capacity{CPU: 15, BandwidthMbps: 70},
			Adaptive:   gqosm.Capacity{CPU: 6, BandwidthMbps: 20},
			BestEffort: gqosm.Capacity{CPU: 5, BandwidthMbps: 10},
		},
		Topology:      topo,
		ConfirmWindow: time.Hour,
	})
	check(err)
	defer stack.Close()
	b := stack.Broker

	// A guaranteed visualization stream: 45 Mbps from site C, willing to
	// fall back to a degraded alternative.
	spec := gqosm.NewSpec(gqosm.Exact(gqosm.BandwidthMbps, 45))
	spec.SourceIP, spec.DestIP = "10.10.3.4", "192.200.168.33"
	spec.MaxPacketLossPct = 10
	offer, err := b.RequestService(gqosm.Request{
		Service:           "simulation",
		Client:            "viz-stream",
		Class:             gqosm.ClassGuaranteed,
		Spec:              spec,
		Start:             start,
		End:               start.Add(5 * time.Hour),
		AcceptDegradation: true,
	})
	check(err)
	id := offer.SLA.ID
	check(b.Accept(id))
	_, err = b.Invoke(id)
	check(err)
	fmt.Printf("session %s active at %v\n", id, offer.SLA.Allocated)

	// The C—A link congests to 40% of nominal.
	check(topo.SetCongestion("site-a", "site-c", nrm.Congestion{
		BandwidthFactor: 0.4, ExtraDelayMS: 30, LossPct: 15,
	}))
	clock.Advance(30 * time.Minute)

	// The NRM's periodic check detects the shortfall and notifies its
	// subscribers, the broker's SLA-Verif among them (the §3.2 degradation
	// notification), one flow at a time in the order it returns them.
	var flows []nrm.Flow
	stack.NRM.Subscribe(func(f nrm.Flow, _ nrm.Measurement) { flows = append(flows, f) })
	degraded := stack.NRM.CheckAll(clock.Now())
	fmt.Printf("\nNRM check: %d degraded flow(s)\n", len(degraded))
	for i, m := range degraded {
		fmt.Printf("  flow %s delivering %.1f Mbps (delay %.0f ms, loss %.0f%%)\n",
			flows[i].ID, m.BandwidthMbps, m.DelayMS, m.LossPct)
	}

	doc, err := b.Session(id)
	check(err)
	fmt.Printf("session state after notification: %s (violations: %d)\n",
		doc.State, b.Violations(id))

	// An explicit client-side conformance test shows the measured levels
	// (Table 3).
	rep, err := b.Verify(id)
	check(err)
	out, err := sla.MarshalIndent(rep.XML)
	check(err)
	fmt.Printf("\nconformance reply during congestion:\n%s\n", out)

	// Congestion clears; the broker restores the agreed QoS on its next
	// adaptation pass.
	check(topo.SetCongestion("site-a", "site-c", nrm.Congestion{}))
	clock.Advance(30 * time.Minute)
	if rep, err := b.Verify(id); err == nil {
		fmt.Printf("after recovery: conforms=%v measured=%v\n", rep.Conforms, rep.Measured)
	}

	fmt.Println("\nbroker activity log:")
	for _, e := range b.Events() {
		fmt.Println("  " + e.String())
	}
	// Output:
	// session site-a-sla-0001 active at bandwidth-mbps=45
	//
	// NRM check: 1 degraded flow(s)
	//   flow site-a-flow-1 delivering 18.0 Mbps (delay 35 ms, loss 15%)
	// session state after notification: violated (violations: 1)
	//
	// conformance reply during congestion:
	// <QoS_Levels>
	//   <SLA-ID>site-a-sla-0001</SLA-ID>
	//   <Measured_Network_QoS>
	//     <Source_IP>10.10.3.4</Source_IP>
	//     <Dest_IP>192.200.168.33</Dest_IP>
	//     <Bandwidth>18 Mbps</Bandwidth>
	//     <Packet_Loss>15%</Packet_Loss>
	//     <Delay>35ms</Delay>
	//   </Measured_Network_QoS>
	//   <Conforms>false</Conforms>
	// </QoS_Levels>
	// after recovery: conforms=true measured=bandwidth-mbps=45
	//
	// broker activity log:
	//   09:00:00 [discovery] client "viz-stream" requests "simulation" class=Guaranteed spec floor bandwidth-mbps=45
	//   09:00:00 [offer] (site-a-sla-0001) proposed bandwidth-mbps=45 at price 3.38 (expires 10:00:00)
	//   09:00:00 [sla] (site-a-sla-0001) established; resources committed; charged 3.38
	//   09:00:00 [invoke] (site-a-sla-0001) service "simulation" launched as job-1 (pid 1001), reservation claimed
	//   09:30:00 [degradation] (site-a-sla-0001) NRM reports site-a-flow-1 delivering 18/45 Mbps
	//   09:30:00 [violation] (site-a-sla-0001) SLA violation #1 detected
	//   09:30:00 [verify] (site-a-sla-0001) conformance test: conforms=false measured=bandwidth-mbps=18
	//   09:30:00 [violation] (site-a-sla-0001) SLA violation #2 detected
	//   10:00:00 [verify] (site-a-sla-0001) conformance test: conforms=true measured=bandwidth-mbps=45
}

// Example_marketplace shows the provider-economics half of the paper:
// controlled-load clients negotiate quality ranges, a guaranteed burst
// forces scenario-1 degradation of willing sessions, its completion
// triggers scenario-2 restoration, the §5.3 optimizer reallocates quality
// levels for profit, and opted-in clients receive scenario-2(c) promotion
// offers, with every charge, penalty and promotion landing in the provider
// ledger.
func Example_marketplace() {
	clock := gqosm.NewManualClock(start)
	stack, err := gqosm.NewStack(gqosm.StackConfig{
		Domain: "site-a",
		Clock:  clock,
		Plan: gqosm.CapacityPlan{
			Guaranteed: gqosm.Capacity{CPU: 15, MemoryMB: 6144},
			Adaptive:   gqosm.Capacity{CPU: 6, MemoryMB: 2048},
			BestEffort: gqosm.Capacity{CPU: 5, MemoryMB: 2048},
		},
		ConfirmWindow: time.Hour,
	})
	check(err)
	defer stack.Close()
	b := stack.Broker
	allocations := func(label string, ids []gqosm.SLAID) {
		fmt.Printf("\n%s:\n", label)
		for _, id := range ids {
			if doc, err := b.Session(id); err == nil {
				fmt.Printf("  %s: %v (state %s)\n", id, doc.Allocated, doc.State)
			}
		}
	}

	// Three controlled-load tenants with [2, 6]-node ranges, all willing
	// to degrade and opted in to promotions.
	var tenants []gqosm.SLAID
	for i := 0; i < 3; i++ {
		offer, err := b.RequestService(gqosm.Request{
			Service:           "simulation",
			Client:            fmt.Sprintf("tenant-%d", i+1),
			Class:             gqosm.ClassControlledLoad,
			Spec:              gqosm.NewSpec(gqosm.Range(gqosm.CPU, 2, 6), gqosm.Range(gqosm.MemoryMB, 512, 2048)),
			Start:             start,
			End:               start.Add(12 * time.Hour),
			AcceptDegradation: true,
			PromotionOptIn:    true,
		})
		check(err)
		check(b.Accept(offer.SLA.ID))
		fmt.Printf("tenant %s admitted at %v (%.2f)\n", offer.SLA.ID, offer.SLA.Allocated, offer.Price)
		tenants = append(tenants, offer.SLA.ID)
	}
	allocations("initial allocations", tenants)

	// A guaranteed 9-node burst arrives: with the tenants at 15 nodes it
	// only fits once scenario 1 degrades the willing tenants toward their
	// 2-node floors.
	clock.Advance(time.Hour)
	burst, err := b.RequestService(gqosm.Request{
		Service: "simulation",
		Client:  "burst-job",
		Class:   gqosm.ClassGuaranteed,
		Spec:    gqosm.NewSpec(gqosm.Exact(gqosm.CPU, 9)),
		Start:   clock.Now(),
		End:     clock.Now().Add(2 * time.Hour),
	})
	check(err)
	check(b.Accept(burst.SLA.ID))
	fmt.Printf("\nburst %s admitted (compensated=%v)\n", burst.SLA.ID, burst.Compensated)
	allocations("after scenario-1 compensation", tenants)

	// The burst completes: scenario 2 restores tenants, the optimizer
	// upgrades them, and promotion offers go out for the rest.
	clock.Advance(2 * time.Hour)
	check(b.Terminate(burst.SLA.ID, "burst complete"))
	allocations("after scenario-2 restoration + optimizer", tenants)

	// Tenant 1 finishes early: scenario 2(b), the optimizer spends the
	// released nodes on the tenant still below its best quality.
	clock.Advance(time.Hour)
	check(b.Terminate(tenants[0], "tenant finished early"))
	allocations("after tenant-1 departure (optimizer upgrade)", tenants[1:])

	promos := b.Promotions()
	fmt.Printf("\nopen promotion offers: %d\n", len(promos))
	for _, p := range promos {
		fmt.Printf("  %s: %v -> %v for %.2f (list %.2f)\n", p.SLA, p.From, p.To, p.OfferPrice, p.ListPrice)
	}
	if len(promos) > 0 {
		check(b.AcceptPromotion(promos[0].SLA))
		fmt.Printf("tenant %s accepted its promotion\n", promos[0].SLA)
	}

	fmt.Println("\nledger:")
	for _, e := range b.Ledger().Entries() {
		fmt.Printf("  %-9s %-18s %8.2f  %s\n", e.Kind, e.SLA, e.Amount, e.Note)
	}
	fmt.Printf("net provider revenue: %.2f\n", b.Ledger().NetRevenue())
	// Output:
	// tenant site-a-sla-0001 admitted at cpu=6 memory-mb=2048 (34.24)
	// tenant site-a-sla-0002 admitted at cpu=6 memory-mb=2048 (34.24)
	// tenant site-a-sla-0003 admitted at cpu=3 memory-mb=2048 (22.24)
	//
	// initial allocations:
	//   site-a-sla-0001: cpu=6 memory-mb=2048 (state established)
	//   site-a-sla-0002: cpu=6 memory-mb=2048 (state established)
	//   site-a-sla-0003: cpu=3 memory-mb=2048 (state established)
	//
	// burst site-a-sla-0004 admitted (compensated=true)
	//
	// after scenario-1 compensation:
	//   site-a-sla-0001: cpu=2 memory-mb=512 (state established)
	//   site-a-sla-0002: cpu=2 memory-mb=512 (state established)
	//   site-a-sla-0003: cpu=2 memory-mb=512 (state established)
	//
	// after scenario-2 restoration + optimizer:
	//   site-a-sla-0001: cpu=6 memory-mb=2048 (state established)
	//   site-a-sla-0002: cpu=6 memory-mb=2048 (state established)
	//   site-a-sla-0003: cpu=3 memory-mb=2048 (state established)
	//
	// after tenant-1 departure (optimizer upgrade):
	//   site-a-sla-0002: cpu=6 memory-mb=2048 (state established)
	//   site-a-sla-0003: cpu=6 memory-mb=2048 (state established)
	//
	// open promotion offers: 0
	//
	// ledger:
	//   charge    site-a-sla-0001       34.24  session charge
	//   charge    site-a-sla-0002       34.24  session charge
	//   charge    site-a-sla-0003       22.24  session charge
	//   refund    site-a-sla-0003       11.68  quality degradation refund
	//   refund    site-a-sla-0001       23.68  quality degradation refund
	//   refund    site-a-sla-0002       23.68  quality degradation refund
	//   charge    site-a-sla-0004       54.00  session charge
	//   charge    site-a-sla-0001       23.68  quality upgrade
	//   charge    site-a-sla-0002       23.68  quality upgrade
	//   charge    site-a-sla-0003       11.68  quality upgrade
	//   charge    site-a-sla-0003       12.00  quality upgrade
	// net provider revenue: 156.72
}

// Example_federation shows the Fig. 1 multi-domain architecture: two
// administrative domains, each with its own AQoS broker, resource manager
// and registry. The client talks to its home domain; requests the home
// domain cannot serve (an unadvertised service, or more capacity than the
// local guaranteed pool holds) are forwarded to the neighboring AQoS, and
// the winning domain's offer comes back annotated with where to conclude
// the SLA.
func Example_federation() {
	// Domain 1: a small departmental cluster advertising "solver".
	home, err := gqosm.NewStack(gqosm.StackConfig{
		Domain: "domain1",
		Clock:  gqosm.NewManualClock(start),
		Plan: gqosm.CapacityPlan{
			Guaranteed: gqosm.Nodes(12),
			Adaptive:   gqosm.Nodes(4),
			BestEffort: gqosm.Nodes(4),
		},
		Services: []registry.Service{{
			Name:       "solver",
			Provider:   "domain1",
			Properties: []registry.Property{registry.NumProp("cpu-nodes", 20)},
		}},
		ConfirmWindow: time.Hour,
	})
	check(err)
	defer home.Close()

	// Domain 2: the big national center advertising both services.
	neighbor, err := gqosm.NewStack(gqosm.StackConfig{
		Domain: "domain2",
		Clock:  gqosm.NewManualClock(start),
		Plan: gqosm.CapacityPlan{
			Guaranteed: gqosm.Nodes(60),
			Adaptive:   gqosm.Nodes(20),
			BestEffort: gqosm.Nodes(20),
		},
		Services: []registry.Service{
			{Name: "solver", Provider: "domain2",
				Properties: []registry.Property{registry.NumProp("cpu-nodes", 100)}},
			{Name: "renderer", Provider: "domain2",
				Properties: []registry.Property{registry.NumProp("cpu-nodes", 100)}},
		},
		ConfirmWindow: time.Hour,
	})
	check(err)
	defer neighbor.Close()

	fed := core.NewFederation(home.Broker)
	check(fed.AddPeer(neighbor.Broker))
	fmt.Printf("federation: home=%s, neighbors=[%s]\n\n", home.Broker.PeerDomain(), neighbor.Broker.PeerDomain())

	request := func(service string, nodes float64) {
		offer, err := fed.RequestService(gqosm.Request{
			Service: service,
			Client:  "fed-client",
			Class:   gqosm.ClassGuaranteed,
			Spec:    gqosm.NewSpec(gqosm.Exact(gqosm.CPU, nodes)),
			Start:   start,
			End:     start.Add(4 * time.Hour),
		})
		if err != nil {
			fmt.Printf("request %q x%g: DECLINED everywhere: %v\n", service, nodes, err)
			return
		}
		where := "served locally"
		if offer.Forwarded {
			where = "forwarded to neighbor"
		}
		fmt.Printf("request %q x%-3g -> %s by %q (SLA %s, price %.2f)\n",
			service, nodes, where, offer.Domain, offer.SLA.ID, offer.Price)
	}

	// Fits the home domain.
	request("solver", 8)
	// Exceeds domain1's guaranteed pool (12): forwarded to domain2.
	request("solver", 30)
	// Only domain2 advertises a renderer.
	request("renderer", 10)
	// Nobody has 500 nodes.
	request("solver", 500)

	fmt.Println("\nhome activity log:")
	for _, e := range home.Broker.Events() {
		fmt.Println("  " + e.String())
	}
	// Output:
	// federation: home=domain1, neighbors=[domain2]
	//
	// request "solver" x8   -> served locally by "domain1" (SLA domain1-sla-0001, price 48.00)
	// request "solver" x30  -> forwarded to neighbor by "domain2" (SLA domain2-sla-0001, price 180.00)
	// request "renderer" x10  -> forwarded to neighbor by "domain2" (SLA domain2-sla-0002, price 60.00)
	// request "solver" x500: DECLINED everywhere: core: no domain can serve the request: home "domain1": core: no service matches the request: "solver" with cpu=500; neighbors: [domain2: core: no service matches the request: "solver" with cpu=500]
	//
	// home activity log:
	//   09:00:00 [discovery] client "fed-client" requests "solver" class=Guaranteed spec floor cpu=8
	//   09:00:00 [offer] (domain1-sla-0001) proposed cpu=8 at price 48.00 (expires 10:00:00)
	//   09:00:00 [discovery] client "fed-client" requests "solver" class=Guaranteed spec floor cpu=30
	//   09:00:00 [federation] request for "solver" forwarded to neighbor "domain2"
	//   09:00:00 [discovery] client "fed-client" requests "renderer" class=Guaranteed spec floor cpu=10
	//   09:00:00 [federation] request for "renderer" forwarded to neighbor "domain2"
	//   09:00:00 [discovery] client "fed-client" requests "solver" class=Guaranteed spec floor cpu=500
}
