package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"reflect"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite ../BENCHMARK.json from the metric and workload catalogs")

func TestGeneratorIsAFunctionOfTheSeed(t *testing.T) {
	draw := func(seed int64) string {
		g := newGenerator(seed, 0)
		var b strings.Builder
		for i := 0; i < 200; i++ {
			r := g.request(0)
			b.WriteString(r.Client + r.Class.String() + r.Spec.Floor().String() + r.Spec.Best().String())
		}
		return b.String()
	}
	if draw(7) != draw(7) {
		t.Error("same seed drew different requests")
	}
	if draw(7) == draw(8) {
		t.Error("seeds 7 and 8 drew the same requests")
	}
}

// Every workload runs 200 sessions untraced and traced with the output
// checks on: invariants clean, nothing failed, recovered state equal to
// pre-crash state, and the same outcome digest from both passes.
func TestWorkloadsSmoke(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		t.Run(w.name, func(t *testing.T) {
			t.Parallel()
			dir := t.TempDir()
			tr, err := runTraced(w, 7, limits{sessions: 200}, dir, "")
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range []*passResult{tr.base, tr.traced} {
				if p.checkErr != nil {
					t.Errorf("output check: %v", p.checkErr)
				}
				if p.m.active == 0 || p.m.failed != 0 {
					t.Errorf("%d sessions reached Active, %d of %d operations failed", p.m.active, p.m.failed, p.m.attempted)
				}
			}
			if tr.spans == 0 || tr.rows["bench.generate"] == nil {
				t.Errorf("trace file %s holds %d spans and no bench.generate row", tr.path, tr.spans)
			}
			if u := perLayerValues(w, tr, nil)["bench.unattributed_ratio"]; u < 0 || u > 0.5 {
				t.Errorf("unattributed share of wall time = %.3f, want within [0, 0.5]", u)
			}
			if w.clients == 1 {
				again, err := runPass(w, 7, nil, limits{sessions: 200}, dir)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(again.digests, tr.base.digests) {
					t.Errorf("two runs of seed 7 produced outcome digests %x and %x", tr.base.digests, again.digests)
				}
			}
		})
	}
}

// benchmarkJSON is BENCHMARK.json as the catalogs define it.
func benchmarkJSON() []byte {
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound,omitempty"`
	}
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	doc := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}{Command: []string{"bash", "bench/run.sh"}, Paths: []string{"bench"}, RunSeconds: 10}
	for _, w := range workloads {
		if w.byHand == "" {
			doc.Workloads = append(doc.Workloads, wl{w.name, w.why})
		}
	}
	for _, d := range endToEnd {
		bound := d.bound
		doc.EndToEnd = append(doc.EndToEnd, metric{d.name, d.unit, d.better, &bound})
	}
	for _, d := range perLayer {
		doc.PerLayer = append(doc.PerLayer, metric{d.name, d.unit, d.better, nil})
	}
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		panic(err)
	}
	return append(out, '\n')
}

// BENCHMARK.json names exactly the catalogs' workloads and metrics, and
// the command prints every one of them with its unit.
func TestBenchmarkJSONMatchesWhatIsPrinted(t *testing.T) {
	want := benchmarkJSON()
	if *update {
		if err := os.WriteFile("../BENCHMARK.json", want, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("../BENCHMARK.json differs from the catalogs in metrics.go and workload.go; run go test -run BenchmarkJSON -update")
	}
	if len(workloads) > 8 || len(endToEnd) > 16 || len(perLayer) > 128 {
		t.Errorf("%d workloads, %d end-to-end and %d per-layer metrics exceed the contract's 8, 16 and 128",
			len(workloads), len(endToEnd), len(perLayer))
	}

	for trace, defs := range [][]metricDef{endToEnd, perLayer} {
		var out bytes.Buffer
		o := options{workload: "live8_direct", seed: 7, sessions: 64, trace: trace, workdir: t.TempDir()}
		if ok, err := run(o, &out); err != nil || !ok {
			t.Fatalf("-trace %d: ok=%v err=%v\n%s", trace, ok, err, out.String())
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var r struct {
			Correct   bool
			Attempted int
			Failed    int
			Metrics   map[string]struct {
				Value *float64
				Unit  string
			}
		}
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
			t.Fatalf("-trace %d: last line is not the result object: %v", trace, err)
		}
		if !r.Correct || r.Attempted < 1 || r.Failed != 0 || len(r.Metrics) != len(defs) {
			t.Errorf("-trace %d: correct=%v attempted=%d failed=%d, %d metrics, want %d",
				trace, r.Correct, r.Attempted, r.Failed, len(r.Metrics), len(defs))
		}
		for _, d := range defs {
			if m, ok := r.Metrics[d.name]; !ok || m.Value == nil || m.Unit != d.unit {
				t.Errorf("-trace %d: metric %s printed as %+v, want a value in %s", trace, d.name, m, d.unit)
			}
		}
	}
}
