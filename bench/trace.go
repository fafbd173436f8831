package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strconv"
	"sync"
	"time"
)

// span is one timed call into a layer's public function, recorded from
// the benchmark's own files. Spans of one session share its id; Parent
// is the span that was open when this one began (0 = none).
type span struct {
	ID      int64  `json:"id"`
	Parent  int64  `json:"parent"`
	Session int64  `json:"session"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so call sites do not branch on whether tracing is on.
//
// In-process workloads run on one goroutine, and cur (the innermost open
// span) gives seam spans their parent. Wire workloads record from client
// and server goroutines at once; they pass the parent explicitly through
// the trace header and never read cur.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	cur   int64
	off   bool // set once the timed part is over; later calls record nothing
}

func newTracer() *tracer { return &tracer{t0: time.Now(), spans: make([]span, 0, 1<<16)} }

// reset forgets the spans of set-up and warm-up.
func (t *tracer) reset() {
	if t != nil {
		t.spans, t.cur = t.spans[:0], 0
	}
}

// stop ends recording: the drain and the output checks are not part of
// the workload.
func (t *tracer) stop() {
	if t != nil {
		t.mu.Lock()
		t.off = true
		t.mu.Unlock()
	}
}

// begin opens a span under the innermost open span and returns its id.
// Session 0 inherits the parent's session: the seams do not know whose
// call they are timing.
func (t *tracer) begin(name string, session int64) int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	if t.off {
		t.mu.Unlock()
		return 0
	}
	if session == 0 && t.cur != 0 {
		session = t.spans[t.cur-1].Session
	}
	id := t.open(name, session, t.cur)
	t.cur = id
	t.mu.Unlock()
	return id
}

// beginUnder opens a span under an explicit parent, leaving cur alone.
func (t *tracer) beginUnder(name string, session, parent int64) int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.off {
		return 0
	}
	return t.open(name, session, parent)
}

func (t *tracer) open(name string, session, parent int64) int64 {
	id := int64(len(t.spans) + 1)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Session: session, Name: name,
		StartNS: int64(time.Since(t.t0))})
	return id
}

// end closes a span; one opened by begin hands innermost back to its
// parent.
func (t *tracer) end(id int64) {
	if t == nil || id == 0 {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	s := &t.spans[id-1]
	s.EndNS = now
	if t.cur == id {
		t.cur = s.Parent
	}
	t.mu.Unlock()
}

// writeFile writes the spans as one JSON array, a span per line.
func (t *tracer) writeFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	w := bufio.NewWriterSize(f, 1<<20)
	buf := make([]byte, 0, 160)
	w.WriteString("[\n")
	for i, s := range t.spans {
		buf = buf[:0]
		buf = append(buf, `{"id":`...)
		buf = strconv.AppendInt(buf, s.ID, 10)
		buf = append(buf, `,"parent":`...)
		buf = strconv.AppendInt(buf, s.Parent, 10)
		buf = append(buf, `,"session":`...)
		buf = strconv.AppendInt(buf, s.Session, 10)
		buf = append(buf, `,"name":`...)
		buf = strconv.AppendQuote(buf, s.Name)
		buf = append(buf, `,"start_ns":`...)
		buf = strconv.AppendInt(buf, s.StartNS, 10)
		buf = append(buf, `,"end_ns":`...)
		buf = strconv.AppendInt(buf, s.EndNS, 10)
		buf = append(buf, '}')
		if i < len(t.spans)-1 {
			buf = append(buf, ',')
		}
		buf = append(buf, '\n')
		w.Write(buf)
	}
	w.WriteString("]\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("trace: write %s: %w", path, err)
	}
	return f.Close()
}

// readTrace loads a trace file written by writeFile.
func readTrace(path string) ([]span, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	defer f.Close()
	dec := json.NewDecoder(bufio.NewReaderSize(f, 1<<20))
	if _, err := dec.Token(); err != nil {
		return nil, fmt.Errorf("trace: read %s: %w", path, err)
	}
	var spans []span
	for dec.More() {
		var s span
		if err := dec.Decode(&s); err != nil {
			return nil, fmt.Errorf("trace: read %s: %w", path, err)
		}
		spans = append(spans, s)
	}
	return spans, nil
}

// layerRow is one line of the per-layer table: every span of one name.
type layerRow struct {
	Name    string
	Count   int
	P50us   float64
	P99us   float64
	TotalNS int64 // sum of durations
	SelfNS  int64 // sum of durations minus the part child spans cover
}

// layerTable aggregates spans by name. A span's self time is its
// duration minus the part of that interval its children cover; children
// of one parent never overlap here (one goroutine per parent), so the
// covered part is the sum of the children's durations clipped to the
// parent. Span ids are positions in the file, one-based.
func layerTable(spans []span) map[string]*layerRow {
	covered := make([]int64, len(spans)+1)
	for _, s := range spans {
		if s.Parent == 0 {
			continue
		}
		p := spans[s.Parent-1]
		if lo, hi := max(s.StartNS, p.StartNS), min(s.EndNS, p.EndNS); hi > lo {
			covered[p.ID] += hi - lo
		}
	}
	durs := make(map[string][]float64)
	rows := make(map[string]*layerRow)
	for _, s := range spans {
		r := rows[s.Name]
		if r == nil {
			r = &layerRow{Name: s.Name}
			rows[s.Name] = r
		}
		d := s.EndNS - s.StartNS
		r.Count++
		r.TotalNS += d
		r.SelfNS += d - covered[s.ID]
		durs[s.Name] = append(durs[s.Name], float64(d)/1e3)
	}
	for name, r := range rows {
		d := durs[name]
		sort.Float64s(d)
		r.P50us = quantileSorted(d, 0.50)
		r.P99us = quantileSorted(d, 0.99)
	}
	return rows
}
