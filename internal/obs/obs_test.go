package obs

import (
	"math"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

func TestCounterNilSafe(t *testing.T) {
	var c *Counter
	c.Inc()
	c.Add(5)
	if c.Value() != 0 {
		t.Fatal("nil counter has a value")
	}
	var h *Histogram
	h.Observe(1)
	if h.Count() != 0 || h.Sum() != 0 || h.Quantile(0.5) != 0 {
		t.Fatal("nil histogram has state")
	}
	var r *Registry
	if r.Counter("x", "") != nil || r.Histogram("x", "", nil) != nil {
		t.Fatal("nil registry returned non-nil handles")
	}
	r.GaugeFunc("x", "", func() float64 { return 1 })
	if err := r.WritePrometheus(&strings.Builder{}); err != nil {
		t.Fatal(err)
	}
}

func TestRegistryIdempotentRegistration(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("gqosm_test_total", "help", "op", "x")
	b := r.Counter("gqosm_test_total", "help", "op", "x")
	if a != b {
		t.Fatal("same name+labels returned distinct counters")
	}
	c := r.Counter("gqosm_test_total", "help", "op", "y")
	if a == c {
		t.Fatal("distinct labels shared a counter")
	}
	h1 := r.Histogram("gqosm_lat", "", []float64{1, 2})
	h2 := r.Histogram("gqosm_lat", "", []float64{99})
	if h1 != h2 {
		t.Fatal("histogram registration not idempotent")
	}
}

// TestHistogramBucketBoundaries pins the le <= v convention: an
// observation exactly on a bound lands in that bound's bucket.
func TestHistogramBucketBoundaries(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("b", "", []float64{1, 10, 100})
	for _, v := range []float64{0.5, 1, 1.0001, 10, 99, 100, 101} {
		h.Observe(v)
	}
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		`b_bucket{le="1"} 2`,   // 0.5, 1
		`b_bucket{le="10"} 4`,  // + 1.0001, 10
		`b_bucket{le="100"} 6`, // + 99, 100
		`b_bucket{le="+Inf"} 7`,
		`b_count 7`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
	if h.Count() != 7 {
		t.Fatalf("count = %d", h.Count())
	}
	if got := h.Sum(); math.Abs(got-312.5001) > 1e-9 {
		t.Fatalf("sum = %v", got)
	}
}

func TestHistogramQuantile(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("q", "", []float64{10, 20, 30})
	// 10 observations uniformly in (0,10]: p50 interpolates to ~5.
	for i := 0; i < 10; i++ {
		h.Observe(5)
	}
	if got := h.Quantile(0.5); math.Abs(got-5) > 1e-9 {
		t.Fatalf("p50 = %v, want 5", got)
	}
	// Push 10 more into (20,30]; p95 must land in the top bucket.
	for i := 0; i < 10; i++ {
		h.Observe(25)
	}
	if got := h.Quantile(0.95); got <= 20 || got > 30 {
		t.Fatalf("p95 = %v, want in (20,30]", got)
	}
	// Observations beyond the last bound clamp to it.
	h2 := r.Histogram("q2", "", []float64{1})
	h2.Observe(50)
	if got := h2.Quantile(0.99); got != 1 {
		t.Fatalf("overflow quantile = %v, want clamp to 1", got)
	}
}

func TestCounterConcurrent(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("gqosm_conc_total", "")
	h := r.Histogram("gqosm_conc_lat", "", nil)
	const workers, per = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Inc()
				h.Observe(float64(i%100) * 1e-6)
			}
		}(w)
	}
	// Concurrent scrapes must be race-free too.
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			var sb strings.Builder
			_ = r.WritePrometheus(&sb)
		}
	}()
	wg.Wait()
	<-done
	if c.Value() != workers*per {
		t.Fatalf("counter = %d, want %d", c.Value(), workers*per)
	}
	if h.Count() != workers*per {
		t.Fatalf("hist count = %d, want %d", h.Count(), workers*per)
	}
}

func TestExpositionFormat(t *testing.T) {
	r := NewRegistry()
	r.Counter("gqosm_ops_total", "operations", "event", "accept").Add(3)
	r.GaugeFunc("gqosm_load", "load", func() float64 { return 0.5 })
	r.GaugeFunc("gqosm_fn", "computed", func() float64 { return 42 }, "pool", "G")
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# HELP gqosm_ops_total operations",
		"# TYPE gqosm_ops_total counter",
		`gqosm_ops_total{event="accept"} 3`,
		"# TYPE gqosm_load gauge",
		"gqosm_load 0.5",
		`gqosm_fn{pool="G"} 42`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
	// Families appear in registration order.
	if strings.Index(out, "gqosm_ops_total") > strings.Index(out, "gqosm_load") {
		t.Fatal("families out of registration order")
	}
}

func TestHandlerServesText(t *testing.T) {
	r := NewRegistry()
	r.Counter("gqosm_h_total", "").Inc()
	rec := httptest.NewRecorder()
	r.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if !strings.Contains(rec.Body.String(), "gqosm_h_total 1") {
		t.Fatalf("handler body:\n%s", rec.Body.String())
	}
	if ct := rec.Header().Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Fatalf("content-type %q", ct)
	}
}
