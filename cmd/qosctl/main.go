// Command qosctl is the client-side counterpart of the paper's Fig. 7
// client interface: it sends service_request messages to an AQoS broker
// over SOAP/HTTP and performs the client actions — request a service with
// QoS properties, accept or reject SLA offers, invoke or terminate the
// service, request an explicit SLA verification test, and ask for
// best-effort capacity.
//
// Usage:
//
//	qosctl -broker http://localhost:8080 request -service simulation \
//	        -class guaranteed -cpu 10 -memory 2048 -disk 15 -hours 5
//	qosctl -broker http://localhost:8080 accept  -sla site-a-sla-0001
//	qosctl -broker http://localhost:8080 reject  -sla site-a-sla-0001
//	qosctl -broker http://localhost:8080 invoke  -sla site-a-sla-0001
//	qosctl -broker http://localhost:8080 verify  -sla site-a-sla-0001
//	qosctl -broker http://localhost:8080 terminate -sla site-a-sla-0001
//	qosctl -broker http://localhost:8080 renegotiate -sla site-a-sla-0001 -cpu 12
//	qosctl -broker http://localhost:8080 besteffort -client me -cpu 4
//	qosctl -broker http://localhost:8080 metrics
//	qosctl load -endpoints http://localhost:8080,http://localhost:8081
//
// The -transport flag picks the wire protocol: soap (default, the
// paper-faithful reference) or http (the compact JSON API under
// /api/v1/ — no envelope, typed errors round-trip). verify is a
// SOAP-only operation: its reply is the Table-3 XML document.
package main

import (
	"encoding/json"
	"encoding/xml"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"time"

	"gqosm"
	"gqosm/internal/core"
	"gqosm/internal/httpapi"
	"gqosm/internal/sla"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "qosctl:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	global := flag.NewFlagSet("qosctl", flag.ContinueOnError)
	broker := global.String("broker", "http://localhost:8080", "AQoS broker endpoint")
	transport := global.String("transport", "soap", "wire protocol: soap | http (the compact JSON API)")
	if err := global.Parse(args); err != nil {
		return err
	}
	rest := global.Args()
	if len(rest) == 0 {
		return fmt.Errorf("missing subcommand: request | accept | reject | invoke | verify | terminate | besteffort | metrics | load")
	}
	w, err := newWire(*transport, *broker)
	if err != nil {
		return err
	}
	cmd, rest := rest[0], rest[1:]
	switch cmd {
	case "request":
		return doRequest(w, rest)
	case "accept", "reject", "invoke", "terminate", "accept_promotion":
		return doAction(w, cmd, rest)
	case "renegotiate":
		return doRenegotiate(w, rest)
	case "verify":
		return doVerify(w, rest)
	case "besteffort":
		return doBestEffort(w, rest)
	case "metrics":
		return doMetrics(*broker, rest)
	case "load":
		return doLoad(*transport, *broker, rest)
	default:
		return fmt.Errorf("unknown subcommand %q", cmd)
	}
}

// wire is what the subcommands need of a broker client; the SOAP client
// (*core.Client) and the JSON client (*httpapi.Client) both satisfy it.
// Admission and verify answer with the wire's own document, so those two
// subcommands look at the concrete client.
type wire interface {
	Act(id sla.ID, action, reason string) (string, error)
	Renegotiate(id sla.ID, spec sla.Spec) (string, error)
	BestEffort(client string, amount gqosm.Capacity, release bool) error
	LoadReport() (core.LoadReport, error)
}

func newWire(transport, endpoint string) (wire, error) {
	switch transport {
	case "soap":
		return gqosm.NewBrokerClient(endpoint), nil
	case "http":
		return gqosm.NewJSONBrokerClient(endpoint), nil
	default:
		return nil, fmt.Errorf("bad -transport %q (want soap or http)", transport)
	}
}

// specFlags registers the QoS-parameter flags request and renegotiate
// share and returns the spec they spell once fs is parsed.
func specFlags(fs *flag.FlagSet) func() sla.Spec {
	var (
		cpu    = fs.Float64("cpu", 0, "CPU nodes (exact, or max with -cpu-min)")
		cpuMin = fs.Float64("cpu-min", 0, "minimum CPU nodes (controlled-load range)")
		memory = fs.Float64("memory", 0, "memory MB")
		disk   = fs.Float64("disk", 0, "disk GB")
		bw     = fs.Float64("bandwidth", 0, "bandwidth Mbps")
	)
	return func() sla.Spec {
		var params []gqosm.Param
		if *cpu > 0 && *cpuMin > 0 {
			params = append(params, gqosm.Range(gqosm.CPU, *cpuMin, *cpu))
		} else if *cpu > 0 {
			params = append(params, gqosm.Exact(gqosm.CPU, *cpu))
		}
		if *memory > 0 {
			params = append(params, gqosm.Exact(gqosm.MemoryMB, *memory))
		}
		if *disk > 0 {
			params = append(params, gqosm.Exact(gqosm.DiskGB, *disk))
		}
		if *bw > 0 {
			params = append(params, gqosm.Exact(gqosm.BandwidthMbps, *bw))
		}
		return gqosm.NewSpec(params...)
	}
}

func doRequest(w wire, args []string) error {
	fs := flag.NewFlagSet("request", flag.ContinueOnError)
	var (
		service  = fs.String("service", "simulation", "service name")
		clientID = fs.String("client", "qosctl", "client identity")
		class    = fs.String("class", "guaranteed", "QoS class: guaranteed | controlled-load")
		spec     = specFlags(fs)
		src      = fs.String("source-ip", "", "flow source IP")
		dst      = fs.String("dest-ip", "", "flow destination IP")
		hours    = fs.Float64("hours", 1, "reservation length in hours")
		budget   = fs.Float64("budget", 0, "budget cap (0 = none)")
		degrade  = fs.Bool("accept-degradation", false, "willing to degrade (scenario 1)")
		promo    = fs.Bool("promotions", false, "opt in to promotion offers")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	cls, err := sla.ParseClass(*class)
	if err != nil {
		return err
	}
	now := time.Now()
	req := gqosm.Request{
		Service:           *service,
		Client:            *clientID,
		Class:             cls,
		Spec:              spec(),
		Start:             now,
		End:               now.Add(time.Duration(*hours * float64(time.Hour))),
		Budget:            *budget,
		AcceptDegradation: *degrade,
		PromotionOptIn:    *promo,
	}
	req.Spec.SourceIP, req.Spec.DestIP = *src, *dst

	// The offer prints in its wire's own form: the SLA document over
	// SOAP, the negotiated essentials over JSON.
	var (
		id      string
		price   float64
		expires any
		doc     []byte
	)
	switch c := w.(type) {
	case *core.Client:
		offer, rerr := c.RequestService(req)
		if rerr != nil {
			return rerr
		}
		id, price, expires = offer.SLA.SLAID, offer.Price, offer.Expires
		doc, err = xml.MarshalIndent(offer.SLA, "", "  ")
	case *httpapi.Client:
		offer, rerr := c.RequestService(req)
		if rerr != nil {
			return rerr
		}
		id, price, expires = offer.SLAID, offer.Price, offer.Expires
		doc, err = json.MarshalIndent(offer, "", "  ")
	}
	if err != nil {
		return err
	}
	fmt.Printf("offer: SLA %s, price %.2f, expires %s\n%s\n", id, price, expires, doc)
	return nil
}

func doAction(w wire, action string, args []string) error {
	fs := flag.NewFlagSet(action, flag.ContinueOnError)
	id := fs.String("sla", "", "SLA ID")
	reason := fs.String("reason", "", "reason (terminate)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *id == "" {
		return fmt.Errorf("-sla is required")
	}
	detail, err := w.Act(sla.ID(*id), action, *reason)
	if err != nil {
		return err
	}
	fmt.Printf("%s: ok", action)
	if detail != "" {
		fmt.Printf(" (%s)", detail)
	}
	fmt.Println()
	return nil
}

func doRenegotiate(w wire, args []string) error {
	fs := flag.NewFlagSet("renegotiate", flag.ContinueOnError)
	id := fs.String("sla", "", "SLA ID")
	spec := specFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *id == "" {
		return fmt.Errorf("-sla is required")
	}
	detail, err := w.Renegotiate(sla.ID(*id), spec())
	if err != nil {
		return err
	}
	fmt.Println("renegotiated:", detail)
	return nil
}

func doVerify(w wire, args []string) error {
	fs := flag.NewFlagSet("verify", flag.ContinueOnError)
	id := fs.String("sla", "", "SLA ID")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *id == "" {
		return fmt.Errorf("-sla is required")
	}
	soap, ok := w.(*core.Client)
	if !ok {
		return fmt.Errorf("verify is SOAP-only; use -transport soap")
	}
	levels, err := soap.Verify(sla.ID(*id))
	if err != nil {
		return err
	}
	out, err := xml.MarshalIndent(levels, "", "  ")
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

func doBestEffort(w wire, args []string) error {
	fs := flag.NewFlagSet("besteffort", flag.ContinueOnError)
	var (
		clientID = fs.String("client", "qosctl", "client identity")
		cpu      = fs.Float64("cpu", 0, "CPU nodes")
		memory   = fs.Float64("memory", 0, "memory MB")
		disk     = fs.Float64("disk", 0, "disk GB")
		release  = fs.Bool("release", false, "release held capacity instead")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	amount := gqosm.Capacity{CPU: *cpu, MemoryMB: *memory, DiskGB: *disk}
	if err := w.BestEffort(*clientID, amount, *release); err != nil {
		return err
	}
	if *release {
		fmt.Println("released")
	} else {
		fmt.Printf("granted %v\n", amount)
	}
	return nil
}

// doLoad prints each broker instance's load report — the signal the
// cluster front tier's least-loaded placement routes on. With
// -endpoints it walks a comma-separated multi-broker deployment; the
// default is the single -broker endpoint.
func doLoad(transport, broker string, args []string) error {
	fs := flag.NewFlagSet("load", flag.ContinueOnError)
	endpoints := fs.String("endpoints", "", "comma-separated broker endpoints (default: the -broker one)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	eps := []string{broker}
	if *endpoints != "" {
		eps = strings.Split(*endpoints, ",")
	}
	fmt.Printf("%-24s %-10s %8s %8s  %s\n", "ENDPOINT", "DOMAIN", "SESSIONS", "LOAD", "STATE")
	var firstErr error
	for _, ep := range eps {
		ep = strings.TrimSpace(ep)
		if ep == "" {
			continue
		}
		w, err := newWire(transport, ep)
		if err != nil {
			return err
		}
		r, err := w.LoadReport()
		if err != nil {
			fmt.Printf("%-24s %-10s %8s %8s  unreachable: %v\n", ep, "-", "-", "-", err)
			if firstErr == nil {
				firstErr = fmt.Errorf("load report from %s: %w", ep, err)
			}
			continue
		}
		state := "serving"
		if r.Recovering {
			state = "recovering"
		}
		fmt.Printf("%-24s %-10s %8d %8.3f  %s\n", ep, r.Domain, r.Sessions, r.Load, state)
	}
	return firstErr
}

// doMetrics prints the broker's /metrics snapshot: the broker-side
// counters, latency histograms and utilization gauges in Prometheus
// text exposition format.
func doMetrics(broker string, args []string) error {
	fs := flag.NewFlagSet("metrics", flag.ContinueOnError)
	if err := fs.Parse(args); err != nil {
		return err
	}
	resp, err := http.Get(strings.TrimRight(broker, "/") + "/metrics")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("metrics: broker answered %s", resp.Status)
	}
	_, err = io.Copy(os.Stdout, resp.Body)
	return err
}
