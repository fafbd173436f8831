// Command gridsim regenerates the repository's experiments (DESIGN.md §4)
// — every table and figure artifact of the paper plus the claim
// experiments C1–C5 — and runs the simulation engine's configurations
// (DESIGN.md "Simulation engine"). One mode runs per invocation; the mode
// table below (printed by -h, mirrored in README.md) lists each mode, the
// flags that select it and the flags it reads. Passing a flag the
// selected mode does not read is an error. README.md has an example
// invocation per mode.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"regexp"
	"slices"
	"strings"
	"time"

	"gqosm"
	"gqosm/internal/gara"
	"gqosm/internal/obs"
	"gqosm/internal/resource"
	"gqosm/internal/shadow"
	"gqosm/internal/sim"
	"gqosm/internal/sla"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "gridsim:", err)
		os.Exit(1)
	}
}

// options holds every flag value.
type options struct {
	experiment, walDir, transport, scenario, shadow string
	seed                                            int64
	clients, ops, phases, shards, restarts, cluster int
	faultRate                                       float64
	verbose, jsonOut, intake, soak                  bool
	// summary, when a mode sets it, prints below the plain-text document.
	summary func()
}

// mode is one row of the mode table.
type mode struct {
	name  string
	about string
	// when lists the flags that select the mode (all must be set); the
	// first matching row wins, and the last row has none.
	when []string
	// reads lists the other flags the mode consumes.
	reads []string
	// run executes the mode. Its report (DESIGN.md §17) is the document
	// -json marshals, printDocument renders for humans and Failed gates; it
	// is always emitted before the gate fails the process, so CI has an
	// artifact to inspect. A nil report means the mode printed its own
	// output and has no gate.
	run func(o *options) (*sim.Report, error)
}

var modes = []mode{
	{"cluster", "N brokers behind the front tier vs a 1-broker baseline over the same workload, their outcome parity, and for N > 1 the hand-off crash drill (BENCH_cluster.json)",
		[]string{"cluster"}, []string{"clients", "shards", "seed", "json"}, runCluster},
	{"scenario", "replay a named traffic scenario (or all, or list); -soak adds runtime-health sampling (BENCH_scenarios.json), -shadow evaluates a candidate policy (BENCH_shadow.json)",
		[]string{"scenario"}, []string{"soak", "shadow", "seed", "ops", "shards", "json"}, runScenarios},
	{"restart-chaos", "chaos against a durable broker killed and WAL-recovered mid-workload (BENCH_recovery.json)",
		[]string{"chaos", "restarts"}, []string{"clients", "ops", "shards", "seed", "faultrate", "wal-dir", "intake", "json"}, runChaos},
	{"chaos", "stress workload stepped serially under seeded fault injection (BENCH_chaos.json)",
		[]string{"chaos"}, []string{"clients", "ops", "phases", "shards", "seed", "faultrate", "intake", "json"}, runChaos},
	{"parallel", "concurrent stress clients vs a serial baseline: throughput and admission latency (BENCH_parallel.json)",
		[]string{"parallel"}, []string{"clients", "ops", "phases", "shards", "seed", "intake", "transport", "json"}, runParallel},
	{"experiment", "the paper's tables, figures and claim experiments (the default)",
		nil, []string{"experiment", "seed", "v"}, runExperiments},
}

// selector renders the flags that select m, leaving out the flag except
// (pass "" for all of them).
func (m *mode) selector(except string) string {
	var flags []string
	for _, f := range m.when {
		if f != except {
			flags = append(flags, "-"+f)
		}
	}
	if len(flags) == 0 {
		return "no other mode flag"
	}
	return strings.Join(flags, " ")
}

func (m *mode) knows(flagName string) bool {
	return slices.Contains(m.when, flagName) || slices.Contains(m.reads, flagName)
}

// modeTable renders the mode rows as the Markdown table README.md
// carries; -h prints it above the flag list.
func modeTable() string {
	var sb strings.Builder
	sb.WriteString("| mode | selected by | also reads | what it runs |\n|---|---|---|---|\n")
	for _, m := range modes {
		sel := "(default)"
		if len(m.when) > 0 {
			sel = "`" + m.selector("") + "`"
		}
		fmt.Fprintf(&sb, "| %s | %s | `-%s` | %s |\n", m.name, sel, strings.Join(m.reads, "` `-"), m.about)
	}
	return sb.String()
}

func run(args []string) error {
	fs := flag.NewFlagSet("gridsim", flag.ContinueOnError)
	o := &options{}
	fs.StringVar(&o.experiment, "experiment", "all", "experiment id (E56, C1..C5, T1..T4, F4, F6, all)")
	fs.Int64Var(&o.seed, "seed", 2003, "workload seed")
	fs.BoolVar(&o.verbose, "v", false, "include broker activity logs")
	fs.Bool("parallel", false, "run the concurrent admission stress")
	fs.IntVar(&o.clients, "clients", 0, "stress clients (default 8); with -cluster the simulated client count (default 100000)")
	fs.IntVar(&o.ops, "ops", 10000, "total operations for the stress and scenario modes")
	fs.IntVar(&o.phases, "phases", 10, "mid-run quiesce points for -parallel/-chaos")
	fs.IntVar(&o.shards, "shards", 1, "broker shards (the -parallel serial baseline stays monolithic)")
	fs.BoolVar(&o.jsonOut, "json", false, "emit the mode's report as JSON")
	fs.Bool("chaos", false, "replay the stress workload under deterministic fault injection")
	fs.Float64Var(&o.faultRate, "faultrate", 0.2, "per-site fault injection probability for -chaos (0 = no injector)")
	fs.IntVar(&o.restarts, "restarts", 0, "with -chaos: kill and WAL-recover the broker this many times mid-workload")
	fs.StringVar(&o.walDir, "wal-dir", "", "WAL directory for -chaos -restarts (default: a temporary one)")
	fs.BoolVar(&o.intake, "intake", false, "route admissions through the group-commit intake")
	fs.StringVar(&o.transport, "transport", "", "admission transport for -parallel: empty (in-process) or http (loopback JSON API)")
	fs.StringVar(&o.scenario, "scenario", "", "replay a workload scenario by name ('all' for every scenario, 'list' for the catalog)")
	fs.BoolVar(&o.soak, "soak", false, "run -scenario in long-run soak mode: bounded working set, runtime health sampling")
	fs.StringVar(&o.shadow, "shadow", "", "with -scenario: evaluate the named candidate policy in shadow (divergence counts + counterfactual deltas)")
	fs.IntVar(&o.cluster, "cluster", 0, "run the multi-broker workload with N broker instances behind the front tier")
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "Usage of gridsim — one mode per run:\n\n%s\n", modeTable())
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return err
	}

	// The first row whose selecting flags all hold a non-default value
	// wins ("-restarts 0" stays plain chaos); the last row always matches.
	unset := func(name string) bool { f := fs.Lookup(name); return f.Value.String() == f.DefValue }
	m := &modes[slices.IndexFunc(modes, func(m mode) bool { return !slices.ContainsFunc(m.when, unset) })]
	// Flags the mode ignores are an error: a report must never silently
	// describe a different run than the command line asked for.
	var stray error
	fs.Visit(func(f *flag.Flag) {
		if stray != nil || m.knows(f.Name) {
			return
		}
		var needs []string
		for i := range modes {
			if modes[i].knows(f.Name) {
				needs = append(needs, modes[i].selector(f.Name))
			}
		}
		stray = fmt.Errorf("-%s needs %s (it is not read in %s mode)", f.Name, strings.Join(needs, " or "), m.name)
	})
	if stray != nil {
		return stray
	}

	rep, err := m.run(o)
	if err != nil {
		return fmt.Errorf("%s: %w", m.name, err)
	}
	if rep == nil {
		return nil
	}
	out, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	if o.jsonOut {
		fmt.Println(string(out))
	} else {
		header(strings.ToUpper(m.name), m.about)
		printDocument(out)
		if o.summary != nil {
			o.summary()
		}
	}
	if rep.Failed() {
		return fmt.Errorf("%s: the report failed its gates", m.name)
	}
	return nil
}

// structural matches the punctuation-only lines of an indented JSON
// document, and jsonKey a line's quoted key.
var (
	structural = regexp.MustCompile(`^\s*[\[\]{}]+,?$`)
	jsonKey    = regexp.MustCompile(`^(\s*)"([^"]+)":`)
)

// printDocument prints the human-readable form of the document -json
// emits: the same fields in the same order, one per line, without the
// JSON punctuation.
func printDocument(indented []byte) {
	for _, line := range strings.Split(string(indented), "\n") {
		if !structural.MatchString(line) {
			line = strings.TrimSuffix(strings.TrimSuffix(line, ","), " {")
			fmt.Println(jsonKey.ReplaceAllString(strings.TrimSuffix(line, " ["), "$1$2:"))
		}
	}
}

func header(id, title string) {
	fmt.Printf("\n=== %s — %s ===\n\n", id, title)
}

// runParallel is the BENCH_parallel.json shape: the concurrent run
// beside a serial baseline with the same total work. Each run gets its
// own metrics registry so the baseline's counters do not pollute the
// parallel run's.
func runParallel(o *options) (*sim.Report, error) {
	// The serial baseline always takes the direct in-process path on a
	// monolithic broker; -shards, -intake and -transport only shape the
	// parallel run, so the comparison shows what they change.
	serial, err := sim.RunParallel(sim.StressConfig{Clients: 1, Ops: o.ops, Phases: o.phases, Seed: o.seed})
	if err != nil {
		return nil, fmt.Errorf("serial baseline: %w", err)
	}
	reg := obs.NewRegistry()
	par, err := sim.RunParallel(sim.StressConfig{Clients: o.clients, Ops: o.ops, Phases: o.phases, Seed: o.seed,
		Shards: o.shards, Intake: o.intake, Transport: o.transport, Obs: reg})
	if err != nil {
		return nil, err
	}
	// The summary adds the parallel run's metrics snapshot, which is not
	// part of the JSON document.
	o.summary = func() {
		fmt.Println("\nparallel-run metrics snapshot:")
		if err := reg.WritePrometheus(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "gridsim: metrics snapshot:", err)
		}
	}
	return sim.NewReport("parallel", map[string]any{"seed": o.seed},
		map[string]*sim.Report{"serial": serial, "parallel": par}).Seal(), nil
}

// runChaos serves both chaos rows.
func runChaos(o *options) (*sim.Report, error) {
	if o.faultRate < 0 {
		return nil, fmt.Errorf("bad -faultrate %v (want >= 0)", o.faultRate)
	}
	cfg := sim.StressConfig{Clients: o.clients, Ops: o.ops, Phases: o.phases, Seed: o.seed, Shards: o.shards,
		Intake: o.intake, FaultRate: o.faultRate, Restarts: o.restarts, WALDir: o.walDir}
	if o.restarts > 0 {
		return sim.RunRestartChaos(cfg)
	}
	return sim.RunChaos(cfg)
}

// runCluster is the BENCH_cluster.json shape: the N-broker run, the
// 1-broker baseline over the same workload, the parity gate between
// their outcome digests, and for N > 1 the hand-off crash drill.
func runCluster(o *options) (*sim.Report, error) {
	// An unset -clients leaves each mode's own default in force: 8 stress
	// clients, but the acceptance-scale 10⁵ simulated clients here.
	cfg := sim.ClusterSimConfig{Brokers: o.cluster, Clients: o.clients, Seed: o.seed, Shards: o.shards}
	runs := map[string]*sim.Report{}
	var err error
	if runs["scale"], err = sim.RunClusterSim(cfg); err != nil {
		return nil, err
	}
	cfg.Brokers = 1
	if runs["baseline"], err = sim.RunClusterSim(cfg); err != nil {
		return nil, fmt.Errorf("single-broker baseline: %w", err)
	}
	if o.cluster > 1 {
		runs["handoff"], err = sim.RunHandoffCrash(sim.HandoffCrashConfig{Brokers: o.cluster, Seed: o.seed})
		if err != nil {
			return nil, fmt.Errorf("handoff crash drill: %w", err)
		}
	}
	rep := sim.NewReport("cluster", map[string]any{"brokers": o.cluster, "seed": o.seed}, runs)
	rep.Oracle.Gates["parity"] = runs["scale"].Outcome.Front.OutcomeDigest == runs["baseline"].Outcome.Front.OutcomeDigest
	return rep.Seal(), nil
}

// runScenarios replays one scenario (its bare report) or, for `-scenario
// all`, every scenario as a composite keyed by name — the shape recorded
// in BENCH_scenarios.json.
func runScenarios(o *options) (*sim.Report, error) {
	if o.shadow != "" && o.soak {
		return nil, fmt.Errorf("-shadow and -soak are mutually exclusive (the shadow lab replays each scenario three times itself)")
	}
	if o.scenario == "list" {
		header("SCENARIOS", "workload scenario catalog")
		for _, sc := range sim.Scenarios() {
			fmt.Printf("%-12s %s\n", sc.Name, sc.About)
		}
		return nil, nil
	}
	list := sim.Scenarios()
	if o.scenario != "all" {
		sc, ok := sim.LookupScenario(o.scenario)
		if !ok {
			return nil, fmt.Errorf("unknown scenario %q (try -scenario list)", o.scenario)
		}
		list = []sim.Scenario{sc}
	}
	if o.shadow != "" {
		return shadow.Run(list, shadow.Config{Candidate: o.shadow, Seed: o.seed, Ops: o.ops, Shards: o.shards})
	}

	cfg := sim.ScenarioConfig{Seed: o.seed, Ops: o.ops, Shards: o.shards}
	runs := make(map[string]*sim.Report, len(list))
	for _, sc := range list {
		var err error
		if o.soak {
			runs[sc.Name], err = sim.RunSoak(sc, cfg)
		} else {
			runs[sc.Name], err = sim.RunScenario(sc, cfg)
		}
		if err != nil {
			return nil, fmt.Errorf("%s: %w", sc.Name, err)
		}
	}
	if o.scenario != "all" {
		return runs[list[0].Name], nil
	}
	return sim.NewReport("scenario", map[string]any{"scenario": "all", "seed": o.seed, "ops": o.ops,
		"shards": o.shards, "soak": o.soak}, runs).Seal(), nil
}

// experiments lists the paper artifacts in the order `-experiment all`
// prints them.
var experiments = []struct {
	id, title string
	run       func(seed int64, verbose bool) error
}{
	{"T1", "Table 1 — SLA resource portion relayed to resource managers", runT1},
	{"T2", "Table 2 — GARA reservation primitives, lifecycle transcript", runT2},
	{"T3", "Table 3 — SLA conformance test reply (QoS_Levels)", runT3},
	{"T4", "Table 4 — negotiated SLA with adaptation options", runT4},
	{"F4", "Fig. 4 — the five QoS management phases in one session", runF4},
	{"F6", "Figs. 6–7 — broker activity and client transcript", runF6},
	{"E56", "§5.6 worked example: composite SLA, failure at t2, recovery at t3", runE56},
	{"C1", "utilization & admission: adaptive borrowing vs rigid partition",
		claim(func(seed int64) ([]sim.C1Row, error) { return sim.RunC1(seed, nil) }, sim.FormatC1)},
	{"C2", "guarantee survival under failures: adaptive reserve vs no reserve",
		claim(func(seed int64) ([]sim.C2Row, error) { return sim.RunC2(seed, nil) }, sim.FormatC2)},
	{"C3", "best-effort minimum capacity under guaranteed saturation", claim(sim.RunC3, sim.FormatC3)},
	{"C4", "optimizer profit: greedy vs exact vs first-fit vs minimum",
		claim(func(seed int64) ([]sim.C4Row, error) { return sim.RunC4(seed, nil) }, sim.FormatC4)},
	{"C5", "scenario-1 compensation: admissions vs willingness to degrade",
		claim(func(seed int64) ([]sim.C5Row, error) { return sim.RunC5(seed, nil) }, sim.FormatC5)},
}

// claim adapts a claim experiment (rows, then their table) to the
// experiment signature.
func claim[R any](rows func(seed int64) ([]R, error), format func([]R) string) func(int64, bool) error {
	return func(seed int64, _ bool) error {
		rs, err := rows(seed)
		if err != nil {
			return err
		}
		fmt.Print(format(rs))
		return nil
	}
}

func runExperiments(o *options) (*sim.Report, error) {
	ran := false
	for _, e := range experiments {
		if id := strings.ToUpper(o.experiment); id == "ALL" || id == e.id {
			header(e.id, e.title)
			if err := e.run(o.seed, o.verbose); err != nil {
				return nil, fmt.Errorf("%s: %w", e.id, err)
			}
			ran = true
		}
	}
	if !ran {
		return nil, fmt.Errorf("unknown experiment %q", o.experiment)
	}
	return nil, nil
}

func runE56(_ int64, verbose bool) error {
	res, err := sim.RunE56()
	if err != nil {
		return err
	}
	fmt.Print(res.Table())
	fmt.Printf("\nnetwork sub-SLAs whole until expiry: %v\n", res.NetworkOK)
	fmt.Printf("best-effort preemptions during failure: %d\n", res.Preemptions)
	if verbose {
		fmt.Println("\nbroker activity log:")
		for _, line := range res.Log {
			fmt.Println("  " + line)
		}
	}
	return nil
}

func runT1(_ int64, _ bool) error {
	spec := gqosm.NewSpec(
		gqosm.Exact(gqosm.CPU, 4),
		gqosm.Exact(gqosm.MemoryMB, 64),
		gqosm.Exact(gqosm.BandwidthMbps, 10),
	)
	spec.SourceIP = "192.200.168.33"
	spec.DestIP = "135.200.50.101"
	spec.MaxPacketLossPct = 10
	return printXML(sla.EncodeServiceSpecific(spec, resource.Capacity{CPU: 4, MemoryMB: 64, BandwidthMbps: 10}))
}

func printXML(doc any) error {
	out, err := sla.MarshalIndent(doc)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

func runT2(_ int64, _ bool) error {
	stack, err := newPaperStack()
	if err != nil {
		return err
	}
	defer stack.Close()
	now := stack.Clock.Now()
	req := `&(reservation-type="compute")(count=10)(memory=2048)(disk=15)`
	handle, err := stack.GARA.Create(req, now, now.Add(5*time.Hour), "demo")
	if err != nil {
		return err
	}
	fmt.Printf("globus_gara_reservation_create(%q)\n  -> handle %s\n", req, handle)
	if err := stack.GARA.Bind(handle, gara.BindParam{PID: 4242}); err != nil {
		return err
	}
	fmt.Printf("globus_gara_reservation_bind(%s, pid=4242)\n  -> claimed\n", handle)
	if err := stack.GARA.Unbind(handle); err != nil {
		return err
	}
	fmt.Printf("globus_gara_reservation_unbind(%s)\n  -> reserved\n", handle)
	if err := stack.GARA.Cancel(handle); err != nil {
		return err
	}
	fmt.Printf("globus_gara_reservation_cancel(%s)\n  -> released\n", handle)
	return nil
}

func runT3(_ int64, _ bool) error {
	return withLifecycleSession(func(stack *gqosm.Stack, id gqosm.SLAID) error {
		rep, err := stack.Broker.Verify(id)
		if err != nil {
			return err
		}
		return printXML(rep.XML)
	})
}

func runT4(_ int64, _ bool) error {
	stack, err := newPaperStack()
	if err != nil {
		return err
	}
	defer stack.Close()
	now := stack.Clock.Now()
	offer, err := stack.Broker.RequestService(gqosm.Request{
		Service: "simulation",
		Client:  "controlled-client",
		Class:   gqosm.ClassControlledLoad,
		Spec: gqosm.NewSpec(
			gqosm.Range(gqosm.CPU, 10, 15),
			gqosm.Range(gqosm.MemoryMB, 48, 64),
		),
		Start:             now,
		End:               now.Add(5 * time.Hour),
		AcceptDegradation: true,
		PromotionOptIn:    true,
	})
	if err != nil {
		return err
	}
	return printXML(sla.EncodeDocument(offer.SLA))
}

func runF4(_ int64, _ bool) error {
	return withLifecycleSession(func(stack *gqosm.Stack, id gqosm.SLAID) error {
		// Degrade by failing capacity, then recover (phases 3–5).
		stack.Broker.NotifyFailure(gqosm.Nodes(3))
		if _, err := stack.Broker.Verify(id); err != nil {
			return err
		}
		stack.Broker.NotifyFailure(gqosm.Capacity{})
		if err := stack.Broker.Terminate(id, "session complete"); err != nil {
			return err
		}
		for _, e := range stack.Broker.Events() {
			fmt.Println("  " + e.String())
		}
		return nil
	})
}

func runF6(_ int64, _ bool) error {
	stack, err := newPaperStack()
	if err != nil {
		return err
	}
	defer stack.Close()
	now := stack.Clock.Now()
	offer, err := stack.Broker.RequestService(gqosm.Request{
		Service: "simulation", Client: "fig7-client", Class: gqosm.ClassGuaranteed,
		Spec:  gqosm.NewSpec(gqosm.Exact(gqosm.CPU, 10), gqosm.Exact(gqosm.MemoryMB, 2048), gqosm.Exact(gqosm.DiskGB, 15)),
		Start: now, End: now.Add(5 * time.Hour),
	})
	if err != nil {
		return err
	}
	fmt.Printf("client> service_request (10 CPU, 2048 MB, 15 GB)\n")
	fmt.Printf("aqos > service_offer: SLA %s at price %.2f\n", offer.SLA.ID, offer.Price)
	if err := stack.Broker.Accept(offer.SLA.ID); err != nil {
		return err
	}
	fmt.Printf("client> accept %s\n", offer.SLA.ID)
	if _, err := stack.Broker.Invoke(offer.SLA.ID); err != nil {
		return err
	}
	rep, err := stack.Broker.Verify(offer.SLA.ID)
	if err != nil {
		return err
	}
	fmt.Printf("client> verify %s\naqos > conforms=%v\n\nbroker activity log:\n", offer.SLA.ID, rep.Conforms)
	for _, e := range stack.Broker.Events() {
		fmt.Println("  " + e.String())
	}
	return nil
}

// newPaperStack builds the §5.6-sized stack on a manual clock.
func newPaperStack() (*gqosm.Stack, error) {
	return gqosm.NewStack(gqosm.StackConfig{
		Domain:        "site-a",
		Clock:         gqosm.NewManualClock(sim.Epoch),
		Plan:          sim.DefaultParallelPlan(),
		ConfirmWindow: time.Hour,
	})
}

// withLifecycleSession establishes and invokes a standard guaranteed
// session, then hands it to f.
func withLifecycleSession(f func(*gqosm.Stack, gqosm.SLAID) error) error {
	stack, err := newPaperStack()
	if err != nil {
		return err
	}
	defer stack.Close()
	now := stack.Clock.Now()
	offer, err := stack.Broker.RequestService(gqosm.Request{
		Service: "simulation", Client: "lifecycle", Class: gqosm.ClassGuaranteed,
		Spec:  gqosm.NewSpec(gqosm.Exact(gqosm.CPU, 10), gqosm.Exact(gqosm.MemoryMB, 2048), gqosm.Exact(gqosm.DiskGB, 15)),
		Start: now, End: now.Add(5 * time.Hour),
	})
	if err != nil {
		return err
	}
	if err := stack.Broker.Accept(offer.SLA.ID); err != nil {
		return err
	}
	if _, err := stack.Broker.Invoke(offer.SLA.ID); err != nil {
		return err
	}
	return f(stack, offer.SLA.ID)
}
