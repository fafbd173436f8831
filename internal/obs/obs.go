// Package obs is a dependency-free metrics layer: atomic counters,
// callback gauges, and fixed-bucket latency histograms, with
// Prometheus text-format (0.0.4) exposition. It exists so the broker's
// adaptation scheme — admissions, degradations, promotions, optimizer
// wins — is observable in production without pulling in a client
// library the paper-era stack never had.
//
// All metric handles are nil-safe: calling Inc/Add/Set/Observe on a
// nil handle is a no-op, so components can be instrumented
// unconditionally and pay nothing when no registry is attached.
package obs

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// DefLatencyBuckets spans 1µs .. ~10s in roughly 3x steps — broker
// operations are in-memory (microseconds) but RM adapters may do real
// I/O (milliseconds to seconds).
var DefLatencyBuckets = []float64{
	1e-6, 3e-6, 1e-5, 3e-5, 1e-4, 3e-4, 1e-3, 3e-3,
	1e-2, 3e-2, 1e-1, 3e-1, 1, 3, 10,
}

// Counter is a monotonically increasing atomic counter.
type Counter struct{ v atomic.Int64 }

// Inc adds one. Safe on a nil receiver.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n. Safe on a nil receiver.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value returns the current count. Safe on a nil receiver.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// atomicFloat is a float64 that is added to atomically (a histogram's
// sum).
type atomicFloat struct{ bits atomic.Uint64 }

func (f *atomicFloat) add(d float64) {
	for {
		old := f.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + d)
		if f.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

func (f *atomicFloat) value() float64 { return math.Float64frombits(f.bits.Load()) }

// Histogram is a fixed-bucket histogram of float64 observations
// (by convention, seconds).
type Histogram struct {
	bounds []float64 // upper bounds, ascending; implicit +Inf last
	counts []atomic.Int64
	count  atomic.Int64
	sum    atomicFloat
}

// Observe records v. Safe on a nil receiver.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.counts[i].Add(1)
	h.count.Add(1)
	h.sum.add(v)
}

// Count returns the number of observations. Safe on a nil receiver.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of observations. Safe on a nil receiver.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return h.sum.value()
}

// metricKind discriminates series stored in a family.
type metricKind int

const (
	kindCounter metricKind = iota
	kindGaugeFunc
	kindHistogram
)

func (k metricKind) promType() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindHistogram:
		return "histogram"
	default:
		return "gauge"
	}
}

type series struct {
	labels string // rendered `{k="v",...}` or ""
	ctr    *Counter
	fn     func() float64
	hist   *Histogram
}

type family struct {
	name  string
	help  string
	kind  metricKind
	order []string
	by    map[string]*series
}

// Registry holds an ordered set of metric families. The
// zero-value-adjacent constructor is NewRegistry; a nil *Registry is
// safe to call and returns nil (no-op) handles.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
	order    []string
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// renderLabels turns ("k","v","k2","v2") pairs into `{k="v",k2="v2"}`.
// Odd trailing names are dropped.
func renderLabels(pairs []string) string {
	if len(pairs) < 2 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i := 0; i+1 < len(pairs); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", pairs[i], pairs[i+1])
	}
	b.WriteByte('}')
	return b.String()
}

// getSeries returns the series for name+labels, creating family and
// series as needed. Registration is idempotent: asking again for the
// same name and labels returns the original series.
func (r *Registry) getSeries(name, help string, kind metricKind, labels []string) *series {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.families[name]
	if f == nil {
		f = &family{name: name, help: help, kind: kind, by: make(map[string]*series)}
		r.families[name] = f
		r.order = append(r.order, name)
	}
	key := renderLabels(labels)
	s := f.by[key]
	if s == nil {
		s = &series{labels: key}
		f.by[key] = s
		f.order = append(f.order, key)
	}
	return s
}

// Counter registers (or retrieves) a counter series. labels are
// alternating name/value pairs baked into the series identity.
func (r *Registry) Counter(name, help string, labels ...string) *Counter {
	s := r.getSeries(name, help, kindCounter, labels)
	if s == nil {
		return nil
	}
	if s.ctr == nil {
		s.ctr = &Counter{}
	}
	return s.ctr
}

// GaugeFunc registers a gauge whose value is computed by fn at scrape
// time — zero hot-path cost for values derivable from existing state.
// fn must be safe to call from any goroutine.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...string) {
	s := r.getSeries(name, help, kindGaugeFunc, labels)
	if s == nil {
		return
	}
	s.fn = fn
}

// Histogram registers (or retrieves) a histogram series with the given
// ascending upper bounds (nil means DefLatencyBuckets). Bounds of an
// existing series are not changed.
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...string) *Histogram {
	s := r.getSeries(name, help, kindHistogram, labels)
	if s == nil {
		return nil
	}
	if s.hist == nil {
		if bounds == nil {
			bounds = DefLatencyBuckets
		}
		h := &Histogram{bounds: append([]float64(nil), bounds...)}
		h.counts = make([]atomic.Int64, len(h.bounds)+1)
		s.hist = h
	}
	return s.hist
}

// fmtValue renders a sample value the way Prometheus expects.
func fmtValue(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return fmtFloat(v)
}

func fmtFloat(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}

// WritePrometheus writes every family in registration order in the
// Prometheus text exposition format (version 0.0.4).
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	names := append([]string(nil), r.order...)
	fams := make([]*family, len(names))
	for i, n := range names {
		fams[i] = r.families[n]
	}
	// Snapshot series lists under the lock; sample reads below are
	// atomic and need no lock.
	type snap struct {
		fam    *family
		series []*series
	}
	snaps := make([]snap, len(fams))
	for i, f := range fams {
		ss := make([]*series, 0, len(f.order))
		for _, k := range f.order {
			ss = append(ss, f.by[k])
		}
		snaps[i] = snap{fam: f, series: ss}
	}
	r.mu.Unlock()

	for _, sn := range snaps {
		f := sn.fam
		if f.help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", f.name, f.help); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.kind.promType()); err != nil {
			return err
		}
		for _, s := range sn.series {
			if err := writeSeries(w, f, s); err != nil {
				return err
			}
		}
	}
	return nil
}

func writeSeries(w io.Writer, f *family, s *series) error {
	switch f.kind {
	case kindCounter:
		_, err := fmt.Fprintf(w, "%s%s %d\n", f.name, s.labels, s.ctr.Value())
		return err
	case kindGaugeFunc:
		v := 0.0
		if s.fn != nil {
			v = s.fn()
		}
		_, err := fmt.Fprintf(w, "%s%s %s\n", f.name, s.labels, fmtValue(v))
		return err
	case kindHistogram:
		h := s.hist
		var cum int64
		for i, bound := range h.bounds {
			cum += h.counts[i].Load()
			if err := writeBucket(w, f.name, s.labels, fmtValue(bound), cum); err != nil {
				return err
			}
		}
		cum += h.counts[len(h.bounds)].Load()
		if err := writeBucket(w, f.name, s.labels, "+Inf", cum); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", f.name, s.labels, fmtValue(h.Sum())); err != nil {
			return err
		}
		_, err := fmt.Fprintf(w, "%s_count%s %d\n", f.name, s.labels, h.Count())
		return err
	}
	return nil
}

// writeBucket emits one cumulative `_bucket` sample, splicing the le
// label into any existing label set.
func writeBucket(w io.Writer, name, labels, le string, cum int64) error {
	if labels == "" {
		_, err := fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", name, le, cum)
		return err
	}
	spliced := labels[:len(labels)-1] + fmt.Sprintf(",le=%q}", le)
	_, err := fmt.Fprintf(w, "%s_bucket%s %d\n", name, spliced, cum)
	return err
}

// Handler returns an http.Handler serving the registry in Prometheus
// text format.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WritePrometheus(w)
	})
}
