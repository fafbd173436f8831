package main

import (
	"fmt"
	"io"
)

// runRepeat applies the benchmark's own acceptance procedure: two sets of
// o.repeat untraced runs, run i of either set on seed o.seed+i, workload
// order alternating between runs. For every end-to-end metric it prints
// each set's median and quartiles and fails when a set's interquartile
// spread exceeds the metric's bound (setup_s excepted: one assembly is
// too short to be steady), or when the second set's median is worse than
// the first's by more than the bound. Runs of one seed must also agree on
// their outcome digests, round for round, on one-client workloads.
func runRepeat(o options, set []workload, out io.Writer) (bool, error) {
	type key struct{ workload, metric string }
	values := [2]map[key][]float64{{}, {}}
	digests := map[string][][]uint64{} // workload → run → per-round digests
	ok := true
	for s := 0; s < 2; s++ {
		for i := 0; i < o.repeat; i++ {
			for j := range set {
				w := &set[j]
				if i%2 == 1 {
					w = &set[len(set)-1-j]
				}
				p, err := runPass(w, o.seed+int64(i), nil, limits{seconds: o.seconds, sessions: o.sessions}, o.workdir)
				if err != nil {
					return false, err
				}
				if p.checkErr != nil {
					fmt.Fprintf(out, "%s set %d run %d: OUTPUT CHECK FAILED: %v\n", w.name, s+1, i, p.checkErr)
					ok = false
				}
				for name, v := range endToEndValues(p) {
					k := key{w.name, name}
					values[s][k] = append(values[s][k], v)
				}
				if w.clients == 1 {
					digests[w.name] = append(digests[w.name], p.digests)
				}
			}
			fmt.Fprintf(out, "set %d run %d/%d done\n", s+1, i+1, o.repeat)
		}
	}

	for name, runs := range digests {
		for i := 0; i < o.repeat; i++ {
			a, b := runs[i], runs[o.repeat+i]
			n := min(len(a), len(b))
			if a[n-1] != b[n-1] {
				fmt.Fprintf(out, "%s seed %d: outcome digests differ after %d rounds: %016x vs %016x\n",
					name, o.seed+int64(i), n, a[n-1], b[n-1])
				ok = false
			}
		}
	}

	fmt.Fprintf(out, "%-16s %-22s %12s %12s %12s %8s %12s %8s %6s  %s\n",
		"workload", "metric", "median", "q1", "q3", "spread", "median2", "drift", "bound", "")
	for i := range set {
		for _, d := range endToEnd {
			k := key{set[i].name, d.name}
			m1, m2 := median(values[0][k]), median(values[1][k])
			q1, q3 := quartiles(values[0][k])
			spread := ratio(q3-q1, m1)
			q1b, q3b := quartiles(values[1][k])
			spread = max(spread, ratio(q3b-q1b, m2))
			drift := ratio(m2-m1, m1) // positive = second set worse
			if d.better == "higher" {
				drift = -drift
			}
			verdict := "ok"
			if (spread > d.bound && d.name != "setup_s") || drift > d.bound {
				verdict, ok = "FAIL", false
			}
			fmt.Fprintf(out, "%-16s %-22s %12.4f %12.4f %12.4f %7.1f%% %12.4f %+7.1f%% %5.0f%%  %s\n",
				set[i].name, d.name, m1, q1, q3, 100*spread, m2, 100*drift, 100*d.bound, verdict)
		}
	}
	return ok, nil
}
