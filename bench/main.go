// Command bench is the repository's benchmark: seven session-lifecycle
// workloads driven by a seeded closed-loop generator, with end-to-end
// metrics from an untraced run, per-layer metrics from a traced repeat of
// the same sessions, and output checks that fail the command.
//
//	go run . -seed 7                     every workload, end-to-end metrics
//	go run . -seed 7 -trace 1            every workload, per-layer metrics
//	go run . -workload wire_json -seed 7 -seconds 10 -trace 0
//	go run . -seed 7 -repeat 5           medians, quartiles, pass/fail against the bounds
//
// The last line of every workload's output is one JSON object (see
// README.md).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
)

// options are the command's flags.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	traceOut string
	repeat   int
	sessions int
	workdir  string
}

func main() {
	// One P. The reference box gives its two vCPUs one core's worth of CPU
	// between them (two busy threads each run at half speed), so a second P
	// buys no parallelism: it only lets the collector's workers and the
	// scheduler take the client's core at moments that differ from run to
	// run. On two Ps the same workload's medians spread 15–25 % over ten
	// runs; on one, 2–3 %.
	runtime.GOMAXPROCS(1)
	var o options
	flag.StringVar(&o.workload, "workload", "", "run one workload (default: all seven)")
	flag.Int64Var(&o.seed, "seed", 7, "generator seed")
	flag.Float64Var(&o.seconds, "seconds", 10, "seconds each workload measures")
	flag.IntVar(&o.trace, "trace", 0, "1 repeats each workload with spans recorded and prints the per-layer metrics")
	flag.StringVar(&o.traceOut, "trace-out", "", "trace file (default <workdir>/trace-<workload>-<seed>.json)")
	flag.IntVar(&o.repeat, "repeat", 0, "run the set N times and report medians, quartiles and pass/fail against the bounds")
	flag.IntVar(&o.sessions, "sessions", 0, "measure exactly this many sessions instead of -seconds")
	flag.StringVar(&o.workdir, "workdir", ".bench_build", "directory for WAL directories and trace files")
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "bench: unexpected argument %q\n", flag.Arg(0))
		os.Exit(2)
	}
	ok, err := run(o, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	if !ok {
		os.Exit(1)
	}
}

// run executes the command and reports whether every output check (and,
// with -repeat, every bound) passed.
func run(o options, out io.Writer) (bool, error) {
	set := workloads
	if o.workload != "" {
		w := lookupWorkload(o.workload)
		if w == nil {
			return false, fmt.Errorf("unknown workload %q", o.workload)
		}
		set = []workload{*w}
	}
	if err := os.MkdirAll(o.workdir, 0o755); err != nil {
		return false, err
	}
	if o.repeat > 0 {
		return runRepeat(o, set, out)
	}
	ok := true
	for i := range set {
		r, err := runOne(&set[i], o, out)
		if err != nil {
			return false, err
		}
		ok = ok && r.Correct
	}
	return ok, nil
}

// result is the JSON object that ends a workload's output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runOne runs one workload untraced (-trace 0) or untraced then traced
// (-trace 1), prints its table and its JSON line.
func runOne(w *workload, o options, out io.Writer) (*result, error) {
	lim := limits{seconds: o.seconds, sessions: o.sessions}
	var (
		pass   *passResult
		defs   []metricDef
		values map[string]float64
	)
	fmt.Fprintf(out, "== %s seed=%d\n", w.name, o.seed)
	if o.trace == 0 {
		var err error
		if pass, err = runPass(w, o.seed, nil, lim, o.workdir); err != nil {
			return nil, err
		}
		defs, values = endToEnd, endToEndValues(pass)
		printEndToEnd(out, pass, values)
	} else {
		t, err := runTraced(w, o.seed, lim, o.workdir, o.traceOut)
		if err != nil {
			return nil, err
		}
		pass = t.traced
		probes, err := runProbes(pass.probe, o.workdir)
		if err != nil {
			return nil, fmt.Errorf("%s: layer probes: %w", w.name, err)
		}
		if pass.checkErr == nil {
			pass.checkErr = t.base.checkErr
		}
		defs, values = perLayer, perLayerValues(w, t, probes)
		printPerLayer(out, t, values)
	}
	if pass.checkErr != nil {
		fmt.Fprintf(out, "OUTPUT CHECK FAILED: %v\n", pass.checkErr)
	}
	r := &result{Correct: pass.checkErr == nil, Attempted: pass.m.attempted, Failed: pass.m.failed,
		Metrics: make(map[string]metricValue, len(defs))}
	for _, d := range defs {
		r.Metrics[d.name] = metricValue{Value: values[d.name], Unit: d.unit}
	}
	line, err := json.Marshal(r)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(out, "%s\n", line)
	return r, nil
}

func printEndToEnd(out io.Writer, p *passResult, v map[string]float64) {
	fmt.Fprintf(out, "   %d sessions in %.2fs, %d rounds, digest %016x\n",
		p.m.active, p.wall.Seconds(), len(p.digests), p.digests[len(p.digests)-1])
	for _, d := range endToEnd {
		fmt.Fprintf(out, "   %-22s %14.4f %s\n", d.name, v[d.name], d.unit)
	}
	timings := clientTimingValues(p)
	samples := map[string]int{"admit": len(p.m.admit.us), "establish": len(p.m.establish.us), "terminate": len(p.m.terminate.us)}
	for _, d := range clientTimings {
		n := ""
		if stage, _, ok := strings.Cut(d.name, "_p"); ok && strings.HasSuffix(d.name, "_us") {
			n = fmt.Sprintf("  n=%d", samples[stage])
		}
		fmt.Fprintf(out, "   %-22s %14.4f %-5s%s\n", d.name, timings[d.name], d.unit, n)
	}
}

func printPerLayer(out io.Writer, t *tracedResult, v map[string]float64) {
	fmt.Fprintf(out, "   %d spans of %d sessions in %s\n", t.spans, t.traced.sessions, t.path)
	fmt.Fprintf(out, "   %-26s %9s %10s %10s %10s %10s\n", "span", "count", "p50_us", "p99_us", "total_ms", "self_ms")
	names := make([]string, 0, len(t.rows))
	for name := range t.rows {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		r := t.rows[name]
		fmt.Fprintf(out, "   %-26s %9d %10.2f %10.2f %10.2f %10.2f\n", name, r.Count, r.P50us, r.P99us,
			float64(r.TotalNS)/1e6, float64(r.SelfNS)/1e6)
	}
	for _, d := range perLayer {
		if v[d.name] != 0 {
			fmt.Fprintf(out, "   %-38s %14.4f %s\n", d.name, v[d.name], d.unit)
		}
	}
}
