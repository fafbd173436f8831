// Command aqosd runs an AQoS broker as a SOAP-over-HTTP server — the
// server half of the paper's Fig. 5 testbed (broker + registry behind one
// endpoint). The same listener also serves the compact JSON API under
// /api/v1/ for high-volume clients (see internal/httpapi). The capacity
// partition follows Algorithm 1's administrator inputs: either explicit
// G/A/B node counts or a total with failure-rate and best-effort
// fractions.
//
// Usage:
//
//	aqosd -listen :8080 -guaranteed 15 -adaptive 6 -besteffort 5
//	aqosd -listen :8080 -total 26 -failure-rate 0.23 -besteffort-frac 0.19
//	aqosd -listen :8080 -total 26 -wal-dir /var/lib/aqosd/wal   # durable: restart recovers sessions
package main

import (
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"strings"
	"time"

	"gqosm"
	"gqosm/internal/core"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "aqosd:", err)
		os.Exit(1)
	}
}

// flagNeeds names, for each flag only one configuration reads, the flag
// that selects that configuration.
var flagNeeds = map[string]string{
	"failure-rate":    "total",
	"besteffort-frac": "total",
	"fault-seed":      "fault-rate",
}

// strayFlag applies gridsim's rule to the flags set on the command line:
// a flag the run does not read is an error, never silently dropped.
func strayFlag(fs *flag.FlagSet) error {
	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	var err error
	fs.Visit(func(f *flag.Flag) {
		need := flagNeeds[f.Name]
		switch {
		case err != nil:
		case need != "" && !set[need]:
			err = fmt.Errorf("-%s is read only with -%s", f.Name, need)
		case set["total"] && (f.Name == "guaranteed" || f.Name == "adaptive" || f.Name == "besteffort"):
			err = fmt.Errorf("-%s is not read with -total (the plan comes from -total, -failure-rate and -besteffort-frac)", f.Name)
		}
	})
	return err
}

func run(args []string) error {
	fs := flag.NewFlagSet("aqosd", flag.ContinueOnError)
	var (
		listen     = fs.String("listen", ":8080", "HTTP listen address")
		domain     = fs.String("domain", "site-a", "administrative domain name")
		guaranteed = fs.Float64("guaranteed", 0, "guaranteed-pool CPU nodes (C_G)")
		adaptive   = fs.Float64("adaptive", 0, "adaptive-reserve CPU nodes (C_A)")
		bestEffort = fs.Float64("besteffort", 0, "best-effort CPU nodes (C_B)")
		total      = fs.Float64("total", 0, "total CPU nodes (alternative to explicit pools)")
		failRate   = fs.Float64("failure-rate", 0.2, "expected failure/congestion rate sizing C_A (with -total)")
		beFrac     = fs.Float64("besteffort-frac", 0.2, "best-effort fraction (with -total)")
		memory     = fs.Float64("memory", 10240, "total memory MB (split pro rata)")
		disk       = fs.Float64("disk", 200, "total disk GB (split pro rata)")
		confirm    = fs.Duration("confirm-window", 2*time.Minute, "offer confirmation window")
		monitor    = fs.Duration("monitor-interval", core.DefaultMonitorInterval, "periodic QoS-management interval (0 disables)")
		rmAttempts = fs.Int("rm-attempts", 3, "attempts per RM-facing call (1 disables retries)")
		rmTimeout  = fs.Duration("rm-timeout", 5*time.Second, "per-attempt timeout on RM-facing calls (0 disables)")
		rmBackoff  = fs.Duration("rm-backoff", 100*time.Millisecond, "base backoff between RM retry attempts")
		faultRate  = fs.Float64("fault-rate", 0, "chaos-test this daemon: per-site fault injection probability (0 disables)")
		faultSeed  = fs.Int64("fault-seed", 1, "fault injector PRNG seed (with -fault-rate)")
		walDir     = fs.String("wal-dir", "", "durability directory: lifecycle WAL + snapshots; a restart with the same directory recovers the broker's state")
		peers      peerFlags
	)
	fs.Var(&peers, "peer", "neighboring AQoS endpoint as name=url (repeatable); requests this domain cannot serve are forwarded")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := strayFlag(fs); err != nil {
		return err
	}

	var plan gqosm.CapacityPlan
	switch {
	case *total > 0:
		p, err := gqosm.PlanForFailureRate(gqosm.Capacity{
			CPU: *total, MemoryMB: *memory, DiskGB: *disk,
		}, *failRate, *beFrac)
		if err != nil {
			return err
		}
		plan = p
	case *guaranteed > 0:
		sum := *guaranteed + *adaptive + *bestEffort
		plan = gqosm.CapacityPlan{
			Guaranteed: gqosm.Capacity{CPU: *guaranteed, MemoryMB: *memory * *guaranteed / sum, DiskGB: *disk * *guaranteed / sum},
			Adaptive:   gqosm.Capacity{CPU: *adaptive, MemoryMB: *memory * *adaptive / sum, DiskGB: *disk * *adaptive / sum},
			BestEffort: gqosm.Capacity{CPU: *bestEffort, MemoryMB: *memory * *bestEffort / sum, DiskGB: *disk * *bestEffort / sum},
		}
	default:
		return fmt.Errorf("specify either -total or -guaranteed/-adaptive/-besteffort")
	}

	var inj *gqosm.FaultInjector
	if *faultRate > 0 {
		inj = gqosm.NewFaultInjector(*faultSeed, nil)
		inj.SetDefault(gqosm.FaultPlan{Rate: *faultRate})
		log.Printf("aqosd: CHAOS MODE: injecting faults at rate %g (seed %d)", *faultRate, *faultSeed)
	}
	stack, err := gqosm.NewStack(gqosm.StackConfig{
		Domain:          *domain,
		Plan:            plan,
		ConfirmWindow:   *confirm,
		MonitorInterval: *monitor,
		Faults:          inj,
		RMPolicy: gqosm.RetryPolicy{
			Attempts: *rmAttempts,
			Timeout:  *rmTimeout,
			Backoff:  *rmBackoff,
		},
		WALDir: *walDir,
	})
	if err != nil {
		return err
	}
	if r := stack.Recovery; r != nil {
		log.Printf("aqosd: recovered %d session(s) from %s (replayed %d record(s), adopted %d, refunded %d reservation(s))",
			r.Sessions, *walDir, r.ReplayedRecords, r.Adopted, r.Refunded)
	}
	defer stack.Close()

	handler := newHandler(stack, peers)

	log.Printf("aqosd: domain %q serving SOAP + JSON (/api/v1/) on %s (plan G=%v A=%v B=%v)",
		*domain, *listen, plan.Guaranteed, plan.Adaptive, plan.BestEffort)
	return http.ListenAndServe(*listen, handler)
}

// newHandler assembles the daemon's full HTTP surface: the SOAP endpoints
// with /metrics from Stack.Mount, the pprof profiler family, federation
// forwarding when peers are configured, and the /log and /status
// inspection pages. Split from run so tests can drive it over httptest.
func newHandler(stack *gqosm.Stack, peers peerFlags) http.Handler {
	mux := stack.Mount()
	if len(peers) > 0 {
		fed := core.NewFederation(stack.Broker)
		for _, p := range peers {
			if err := fed.AddPeer(&core.PeerClient{Domain: p.name, Client: core.NewClient(p.url)}); err != nil {
				log.Printf("aqosd: skipping peer %q at %s: %v", p.name, p.url, err)
				continue
			}
			log.Printf("aqosd: neighboring AQoS %q at %s", p.name, p.url)
		}
		fed.Mount(mux)
	}
	mux.HandleHTTP("/debug/pprof/", http.HandlerFunc(pprof.Index))
	mux.HandleHTTP("/debug/pprof/cmdline", http.HandlerFunc(pprof.Cmdline))
	mux.HandleHTTP("/debug/pprof/profile", http.HandlerFunc(pprof.Profile))
	mux.HandleHTTP("/debug/pprof/symbol", http.HandlerFunc(pprof.Symbol))
	mux.HandleHTTP("/debug/pprof/trace", http.HandlerFunc(pprof.Trace))

	httpMux := http.NewServeMux()
	httpMux.Handle("/", mux)
	httpMux.HandleFunc("/log", func(w http.ResponseWriter, _ *http.Request) {
		for _, e := range stack.Broker.Events() {
			fmt.Fprintln(w, e)
		}
	})
	httpMux.HandleFunc("/status", func(w http.ResponseWriter, _ *http.Request) {
		for _, u := range stack.Broker.Allocator().Snapshot() {
			fmt.Fprintf(w, "pool %s: capacity=%v guaranteed=%v best-effort=%v free=%v offline=%v\n",
				u.Pool, u.Capacity, u.Guaranteed, u.BestEffort, u.Free(), u.Offline)
		}
	})
	return httpMux
}

// peerFlags collects repeated -peer name=url flags.
type peerFlags []struct{ name, url string }

func (p *peerFlags) String() string {
	var parts []string
	for _, e := range *p {
		parts = append(parts, e.name+"="+e.url)
	}
	return strings.Join(parts, ",")
}

func (p *peerFlags) Set(v string) error {
	name, url, ok := strings.Cut(v, "=")
	if !ok || name == "" || url == "" {
		return fmt.Errorf("peer must be name=url, got %q", v)
	}
	*p = append(*p, struct{ name, url string }{name, url})
	return nil
}
