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
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"time"

	"gqosm"
	"gqosm/internal/obs"
	"gqosm/internal/resource"
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
	experiment, walDir, transport, scenario    string
	seed                                       int64
	clients, ops, phases, restarts, federation int
	faultRate                                  float64
	verbose, jsonOut, soak                     bool
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
	{"federation", "N federated brokers (aqosd -peer's forwarding) vs a 1-broker baseline over the same workload, and their outcome parity (BENCH_federation.json)",
		[]string{"federation"}, []string{"clients", "seed", "json"}, runFederation},
	{"scenario", "replay a named traffic scenario (or all, or list); -soak adds working-set pruning, counting and the stable gate (BENCH_scenarios.json)",
		[]string{"scenario"}, []string{"soak", "seed", "ops", "json"}, runScenarios},
	{"chaos", "stress workload stepped serially under seeded fault injection against a durable broker killed and WAL-recovered mid-workload (BENCH_chaos.json)",
		[]string{"chaos"}, []string{"clients", "ops", "phases", "restarts", "seed", "faultrate", "wal-dir", "json"}, runChaos},
	{"parallel", "concurrent stress clients vs a serial baseline; the text summary adds their wall-clock throughput (BENCH_parallel.json)",
		[]string{"parallel"}, []string{"clients", "ops", "phases", "seed", "transport", "json"}, runParallel},
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
	o := &options{}
	fs := flagSet(o)
	if err := fs.Parse(args); err != nil {
		return err
	}

	// The first row whose selecting flags all hold a non-default value
	// wins; the last row always matches.
	m := pick(func(name string) bool { f := fs.Lookup(name); return f.Value.String() != f.DefValue })
	// Flags the mode ignores are an error: a report must never silently
	// describe a different run than the command line asked for.
	var stray error
	fs.Visit(func(f *flag.Flag) {
		if stray == nil {
			stray = m.stray(f.Name)
		}
	})
	if stray != nil {
		return stray
	}
	if err := checkRanges(fs); err != nil {
		return err
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

// pick returns the first mode row whose selecting flags are all set.
func pick(set func(name string) bool) *mode {
	return &modes[slices.IndexFunc(modes, func(m mode) bool {
		return !slices.ContainsFunc(m.when, func(name string) bool { return !set(name) })
	})]
}

// stray reports a flag m does not read, naming the modes that do.
func (m *mode) stray(name string) error {
	if m.knows(name) {
		return nil
	}
	var needs []string
	for i := range modes {
		if modes[i].knows(name) {
			needs = append(needs, modes[i].selector(name))
		}
	}
	return fmt.Errorf("-%s needs %s (it is not read in %s mode)", name, strings.Join(needs, " or "), m.name)
}

// ranges lists the numeric flags' accepted values. A value outside is
// refused by name, never defaulted or clamped: a report must never
// silently describe a different run than the command line asked for.
var ranges = []struct {
	flag   string
	lo, hi float64
}{
	{"clients", 0, math.Inf(1)},
	{"ops", 1, math.Inf(1)},
	{"phases", 1, math.Inf(1)},
	{"restarts", 1, math.Inf(1)},
	{"federation", 0, math.Inf(1)},
	{"faultrate", 0, 1},
}

// checkRanges refuses the first set flag outside its range.
func checkRanges(fs *flag.FlagSet) error {
	for _, r := range ranges {
		f := fs.Lookup(r.flag)
		if v, _ := strconv.ParseFloat(f.Value.String(), 64); v >= r.lo && v <= r.hi {
			continue
		}
		if math.IsInf(r.hi, 1) {
			return fmt.Errorf("bad -%s %s (want >= %g)", r.flag, f.Value, r.lo)
		}
		return fmt.Errorf("bad -%s %s (want %g..%g)", r.flag, f.Value, r.lo, r.hi)
	}
	return nil
}

// flagSet declares every flag, bound to o.
func flagSet(o *options) *flag.FlagSet {
	fs := flag.NewFlagSet("gridsim", flag.ContinueOnError)
	fs.StringVar(&o.experiment, "experiment", "all", "experiment id (E56, C1..C5, T1..T4, F4, F6, all)")
	fs.Int64Var(&o.seed, "seed", 2003, "workload seed")
	fs.BoolVar(&o.verbose, "v", false, "include broker activity logs")
	fs.Bool("parallel", false, "run the concurrent admission stress")
	fs.IntVar(&o.clients, "clients", 0, "stress clients (default 8); with -federation the simulated client count (default 100000)")
	fs.IntVar(&o.ops, "ops", 10000, "total operations for the stress and scenario modes")
	fs.IntVar(&o.phases, "phases", 10, "mid-run quiesce points for -parallel/-chaos")
	fs.BoolVar(&o.jsonOut, "json", false, "emit the mode's report as JSON")
	fs.Bool("chaos", false, "replay the stress workload under deterministic fault injection")
	fs.Float64Var(&o.faultRate, "faultrate", 0.2, "per-site fault injection probability for -chaos (0 = no injector)")
	fs.IntVar(&o.restarts, "restarts", 3, "with -chaos: kill and WAL-recover the broker this many times mid-workload")
	fs.StringVar(&o.walDir, "wal-dir", "", "WAL directory for -chaos (default: a temporary one)")
	fs.StringVar(&o.transport, "transport", "", "admission transport for -parallel: empty (in-process) or http (loopback JSON API)")
	fs.StringVar(&o.scenario, "scenario", "", "replay a workload scenario by name ('all' for every scenario, 'list' for the catalog)")
	fs.BoolVar(&o.soak, "soak", false, "run -scenario in long-run soak mode: bounded working set, counted per window")
	fs.IntVar(&o.federation, "federation", 0, "run the multi-broker workload with N federated broker instances")
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "Usage of gridsim — one mode per run:\n\n%s\n", modeTable())
		fs.PrintDefaults()
	}
	return fs
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
	// The serial baseline always takes the in-process path; -transport
	// only shapes the parallel run, so the comparison shows what it
	// changes.
	started := time.Now()
	serial, err := sim.RunParallel(sim.StressConfig{Clients: 1, Ops: o.ops, Phases: o.phases, Seed: o.seed})
	if err != nil {
		return nil, fmt.Errorf("serial baseline: %w", err)
	}
	serialTook := time.Since(started)
	reg := obs.NewRegistry()
	started = time.Now()
	par, err := sim.RunParallel(sim.StressConfig{Clients: o.clients, Ops: o.ops, Phases: o.phases, Seed: o.seed,
		Transport: o.transport, Obs: reg})
	if err != nil {
		return nil, err
	}
	parTook := time.Since(started)
	// The summary adds what the JSON document leaves out because no run
	// determines it: each run's wall-clock throughput (assembly and drain
	// included) and the parallel run's metrics snapshot.
	o.summary = func() {
		serialRate := float64(serial.Outcome.Ops) / serialTook.Seconds()
		parRate := float64(par.Outcome.Ops) / parTook.Seconds()
		fmt.Printf("\nwall clock: serial %.0f ops/s, parallel %.0f ops/s (%.2fx)\n", serialRate, parRate, parRate/serialRate)
		fmt.Println("\nparallel-run metrics snapshot:")
		if err := reg.WritePrometheus(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "gridsim: metrics snapshot:", err)
		}
	}
	return sim.NewReport("parallel", map[string]any{"seed": o.seed},
		map[string]*sim.Report{"serial": serial, "parallel": par}).Seal(), nil
}

// runChaos is the BENCH_chaos.json shape: one serial replay, faulted,
// killed and recovered.
func runChaos(o *options) (*sim.Report, error) {
	return sim.RunChaos(sim.StressConfig{Clients: o.clients, Ops: o.ops, Phases: o.phases, Seed: o.seed,
		FaultRate: o.faultRate, Restarts: o.restarts, WALDir: o.walDir})
}

// runFederation is the BENCH_federation.json shape: the N-broker run,
// the 1-broker baseline over the same workload, and the parity gate
// between their outcome digests.
func runFederation(o *options) (*sim.Report, error) {
	// An unset -clients leaves each mode's own default in force: 8 stress
	// clients, but the acceptance-scale 10⁵ simulated clients here.
	cfg := sim.FederationConfig{Brokers: o.federation, Clients: o.clients, Seed: o.seed}
	runs := map[string]*sim.Report{}
	var err error
	if runs["scale"], err = sim.RunFederation(cfg); err != nil {
		return nil, err
	}
	cfg.Brokers = 1
	if runs["baseline"], err = sim.RunFederation(cfg); err != nil {
		return nil, fmt.Errorf("single-broker baseline: %w", err)
	}
	rep := sim.NewReport("federation", map[string]any{"brokers": o.federation, "seed": o.seed}, runs)
	rep.Oracle.Gates["parity"] = runs["scale"].Outcome.Federation.OutcomeDigest == runs["baseline"].Outcome.Federation.OutcomeDigest
	return rep.Seal(), nil
}

// runScenarios replays one scenario (its bare report) or, for `-scenario
// all`, every scenario as a composite keyed by name — the shape recorded
// in BENCH_scenarios.json.
func runScenarios(o *options) (*sim.Report, error) {
	if o.scenario == "list" {
		if o.jsonOut {
			return nil, errors.New("-scenario list prints a text catalog, not a -json document")
		}
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

	cfg := sim.ScenarioConfig{Seed: o.seed, Ops: o.ops}
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
		"soak": o.soak}, runs).Seal(), nil
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
		document(func(seed int64) (*sim.Report, error) { return sim.RunC1(seed, nil) })},
	{"C2", "guarantee survival under failures: adaptive reserve vs no reserve",
		document(func(seed int64) (*sim.Report, error) { return sim.RunC2(seed, nil) })},
	{"C3", "best-effort minimum capacity under guaranteed saturation", document(sim.RunC3)},
	{"C4", "optimizer profit: greedy vs exact vs first-fit vs minimum", runC4},
	{"C5", "scenario-1 compensation: admissions vs willingness to degrade",
		document(func(seed int64) (*sim.Report, error) { return sim.RunC5(seed, nil) })},
}

// runC4 prints the optimizer table; C4 runs no broker, so it has no
// report.
func runC4(seed int64, _ bool) error {
	rows, err := sim.RunC4(seed, nil)
	if err != nil {
		return err
	}
	fmt.Print(sim.FormatC4(rows))
	return nil
}

// document adapts a claim experiment that hands back a report: it prints
// the report's plain-text document, then fails on a false gate.
func document(report func(seed int64) (*sim.Report, error)) func(int64, bool) error {
	return func(seed int64, _ bool) error {
		rep, err := report(seed)
		if err != nil {
			return err
		}
		out, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		printDocument(out)
		if rep.Failed() {
			return errors.New("the report failed its gates")
		}
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
	oracle := res.Report.Oracle
	fmt.Printf("oracle: %d passes, %d violations; capacity restored: %v\n", oracle.Checks, oracle.Violations, oracle.Gates["capacity_restored"])
	if verbose {
		fmt.Println("\nbroker activity log:")
		for _, line := range res.Log {
			fmt.Println("  " + line)
		}
	}
	if res.Report.Failed() {
		return fmt.Errorf("the report failed its gates: %v", oracle.Details)
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
	if err := stack.GARA.Bind(handle); err != nil {
		return err
	}
	fmt.Printf("globus_gara_reservation_bind(%s)\n  -> claimed\n", handle)
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
