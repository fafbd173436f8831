package main

import (
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"gqosm/internal/cluster"
	"gqosm/internal/core"
	"gqosm/internal/httpapi"
	"gqosm/internal/sla"
)

// frontTarget reaches the brokers through the cluster front tier. Every
// admission is followed by Quiesce, as the cluster sim does: a losing
// fan-out offer holds a reservation until its retraction lands, and an
// admission racing it would make outcomes depend on timing.
type frontTarget struct {
	f  *cluster.Front
	tr *tracer
	// forwarded counts admissions a neighbour served.
	forwarded *int
}

func (d frontTarget) admit(reqs []core.Request, sess []int64, out []admission) {
	for i, req := range reqs {
		t := time.Now()
		s := d.tr.begin("cluster.request", sess[i])
		offer, err := d.f.RequestService(req)
		d.tr.end(s)
		out[i] = admission{err: err, us: float64(time.Since(t)) / 1e3}
		if err == nil {
			out[i].id = offer.SLA.ID
			if offer.Forwarded {
				*d.forwarded++
			}
		}
		s = d.tr.begin("cluster.quiesce", sess[i])
		d.f.Quiesce()
		d.tr.end(s)
	}
}

func (d frontTarget) accept(id sla.ID, sess int64) error {
	s := d.tr.begin("cluster.accept", sess)
	defer d.tr.end(s)
	return d.f.Accept(id)
}

func (d frontTarget) invoke(id sla.ID, sess int64) error {
	s := d.tr.begin("cluster.invoke", sess)
	defer d.tr.end(s)
	_, err := d.f.Invoke(id)
	return err
}

func (d frontTarget) terminate(id sla.ID, sess int64) error {
	s := d.tr.begin("cluster.terminate", sess)
	defer d.tr.end(s)
	return d.f.Terminate(id, "window slide")
}

// traceHeader carries "<server span name>;<session>;<parent span>" from
// the client's RoundTripper to the server middleware. The system under
// test ignores it.
const traceHeader = "X-Bench-Trace"

// wireStats counts bytes at the client's RoundTripper, where they cross
// the wire.
type wireStats struct {
	calls, reqBytes, respBytes atomic.Int64
}

// tracingRT is one client's RoundTripper on traced runs: a client span
// round every exchange, and the header that lets the server span join
// it. The owning client sets layer, kind and sess before each call; a
// closed-loop client has one call in flight, so they are not shared.
type tracingRT struct {
	next  http.RoundTripper
	tr    *tracer
	stats *wireStats
	layer string // "httpapi" or "soapx"
	kind  string // "request" or "act"
	sess  int64
	op    int64 // the client's operation span, parent of the exchange
}

func (rt *tracingRT) RoundTrip(r *http.Request) (*http.Response, error) {
	id := rt.tr.beginUnder(rt.layer+".rtt_"+rt.kind, rt.sess, rt.op)
	r.Header.Set(traceHeader, rt.layer+".server_"+rt.kind+";"+strconv.FormatInt(rt.sess, 10)+";"+strconv.FormatInt(id, 10))
	resp, err := rt.next.RoundTrip(r)
	rt.tr.end(id)
	if err == nil {
		rt.stats.calls.Add(1)
		rt.stats.reqBytes.Add(r.ContentLength)
		rt.stats.respBytes.Add(resp.ContentLength)
	}
	return resp, err
}

// traceMiddleware records the server span of every exchange that carries
// the trace header and passes everything through to next.
func traceMiddleware(tr *tracer, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		parts := strings.Split(r.Header.Get(traceHeader), ";")
		if len(parts) != 3 {
			next.ServeHTTP(w, r)
			return
		}
		sess, _ := strconv.ParseInt(parts[1], 10, 64)
		parent, _ := strconv.ParseInt(parts[2], 10, 64)
		id := tr.beginUnder(parts[0], sess, parent)
		next.ServeHTTP(w, r)
		tr.end(id)
	})
}

// floorPath answers with an empty 200 on the workload's own listener: the
// cost of net/http and loopback with no broker behind it.
const floorPath = "/bench-floor"

func withFloor(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == floorPath {
			return
		}
		next.ServeHTTP(w, r)
	})
}

// wireClient is what the JSON and SOAP clients have in common.
type wireClient interface {
	Act(id sla.ID, action, reason string) (string, error)
}

// wireTarget drives one remote client over its own keep-alive connection.
type wireTarget struct {
	rt      *tracingRT // nil on untraced runs
	act     wireClient
	request func(core.Request) (sla.ID, error)
}

func newWireTarget(transport, endpoint string, tr *tracer, stats *wireStats) (*wireTarget, *http.Client) {
	hc := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1}}
	t := &wireTarget{}
	if tr != nil {
		t.rt = &tracingRT{next: hc.Transport, tr: tr, stats: stats, layer: "httpapi"}
		hc.Transport = t.rt
	}
	if transport == "soap" {
		if t.rt != nil {
			t.rt.layer = "soapx"
		}
		c := core.NewClient(endpoint)
		c.SOAP.HTTPClient = hc
		t.act = c
		t.request = func(r core.Request) (sla.ID, error) {
			offer, err := c.RequestService(r)
			if err != nil {
				return "", err
			}
			return sla.ID(offer.SLA.SLAID), nil
		}
		return t, hc
	}
	c := httpapi.NewClient(endpoint)
	c.HTTPClient = hc
	t.act = c
	t.request = func(r core.Request) (sla.ID, error) {
		offer, err := c.RequestService(r)
		if err != nil {
			return "", err
		}
		return sla.ID(offer.SLAID), nil
	}
	return t, hc
}

// begin opens the client's operation span (codec included) and tells the
// RoundTripper what the next exchange is.
func (t *wireTarget) begin(kind string, sess int64) {
	if rt := t.rt; rt != nil {
		rt.kind, rt.sess = kind, sess
		rt.op = rt.tr.beginUnder(rt.layer+".client_"+kind, sess, 0)
	}
}

func (t *wireTarget) end() {
	if t.rt != nil {
		t.rt.tr.end(t.rt.op)
	}
}

func (t *wireTarget) admit(reqs []core.Request, sess []int64, out []admission) {
	for i, req := range reqs {
		start := time.Now()
		t.begin("request", sess[i])
		id, err := t.request(req)
		t.end()
		out[i] = admission{id: id, err: err, us: float64(time.Since(start)) / 1e3}
	}
}

func (t *wireTarget) doAct(id sla.ID, sess int64, action string) error {
	t.begin("act", sess)
	defer t.end()
	_, err := t.act.Act(id, action, "window slide")
	return err
}

func (t *wireTarget) accept(id sla.ID, sess int64) error    { return t.doAct(id, sess, "accept") }
func (t *wireTarget) invoke(id sla.ID, sess int64) error    { return t.doAct(id, sess, "invoke") }
func (t *wireTarget) terminate(id sla.ID, sess int64) error { return t.doAct(id, sess, "terminate") }

// loopbackFloor times empty exchanges on the workload's listener.
func loopbackFloor(hc *http.Client, endpoint string, n int) (float64, error) {
	var l latency
	for i := 0; i < n; i++ {
		t := time.Now()
		resp, err := hc.Post(endpoint+floorPath, "text/plain", strings.NewReader(""))
		if err != nil {
			return 0, fmt.Errorf("loopback floor: %w", err)
		}
		resp.Body.Close()
		l.add(float64(time.Since(t)) / 1e3)
	}
	p50, _, _ := l.summary()
	return p50, nil
}
