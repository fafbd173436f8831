package main

import (
	"errors"
	"fmt"
	"hash"
	"hash/fnv"
	"math/rand"
	"sync"
	"time"

	"gqosm/internal/core"
	"gqosm/internal/resource"
	"gqosm/internal/sla"
)

// workload is one of the seven fixed workloads; later issues cite the
// names, so they do not change.
type workload struct {
	name, why string
	plan      core.CapacityPlan
	// live is how many sessions each client keeps live before it
	// terminates its oldest.
	live    int
	clients int
	// burst is the number of admissions per admission call; above 1 they
	// go through the intake (Submit, FlushIntake, Wait).
	burst   int
	durable bool
	// brokers above 1 puts a cluster.Front over that many brokers.
	brokers int
	// transport is "" (in-process), "json" or "soap".
	transport string
	// overload selects the adaptation driver (see overload.go).
	overload bool
	// seams installs the registry and resource-manager timing seams on
	// traced runs; they need the single goroutine of a 1-broker
	// in-process workload to find their parent span.
	seams bool
	// byHand keeps the workload out of BENCHMARK.json, and so out of the
	// driver's runs; it says why.
	byHand string
}

var workloads = []workload{
	{name: "live8_direct", plan: lifecyclePlan, live: 8, clients: 1, burst: 1, brokers: 1, seams: true,
		why: "in-process lifecycle at 8 live sessions: the admission pipeline works, optimizer, transport, WAL and front tier do almost nothing"},
	{name: "live64_direct", plan: lifecyclePlan, live: 64, clients: 1, burst: 1, brokers: 1, seams: true,
		why: "same generator at 64 live sessions: working set is what cost depends on, so core.Greedy and pool interval scans dominate"},
	{name: "durable_burst8", plan: lifecyclePlan, live: 16, clients: 1, burst: 8, durable: true, brokers: 1, seams: true,
		byHand: "set-up is a thousand fsyncs, and the box's disk answers one in 0.16 to 2.7 ms from one minute to the next: setup_s moved 7x between sets",
		why:    "WAL and intake on, bursts of 8: fsync does the work, batched on admission and single on every other record, then crash and recovery"},
	{name: "wire_json", plan: lifecyclePlan, live: 4, clients: 2, burst: 1, brokers: 1, transport: "json",
		why: "two keep-alive JSON clients over loopback: httpapi codec and net/http do most of the work"},
	{name: "wire_soap", plan: lifecyclePlan, live: 4, clients: 2, burst: 1, brokers: 1, transport: "soap",
		why: "same listener and operation stream through the SOAP client: soapx, xmlmsg and core/transport.go do the work"},
	{name: "cluster3_front", plan: lifecyclePlan, live: 64, clients: 1, burst: 1, brokers: 3,
		why: "three brokers behind cluster.Front at 64 live cluster-wide with oversized probes and migrations: front-tier cost apart from optimizer cost"},
	{name: "overload_adapt", plan: planOf(96, 24, 16), clients: 1, burst: 1, brokers: 1, overload: true, seams: true,
		why: "offered load 1.8x capacity on virtual-time holds with failures: the allocator compensates, degrades, preempts and restores"},
}

func lookupWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

const (
	// roundSessions is the unit of timed work: the deadline is checked
	// and the outcome digest recorded between rounds.
	roundSessions = 256
	// pruneEvery is the long-lived deployment's quiesce cadence, in
	// sessions; pruning runs inside timed wall time.
	pruneEvery = 1024
	// warmSessions are the untimed sessions that fill the discovery cache,
	// rsl.ParseCached and the HTTP connections during set-up.
	warmSessions = 256
	// clockStep sessions share one second of virtual time.
	clockStep = 16
	// probeEvery-th cluster request asks for more than the cluster owns.
	probeEvery = 97
	// migrateEvery sessions the cluster workload migrates its oldest.
	migrateEvery = 512
)

// deck deals 0..n-1 in a seeded random order and reshuffles when it runs
// out, so every n consecutive draws hold each value once. The seed decides
// the order of the requests, not their mix: with independent draws the
// live set's make-up — and with it the optimizer's work — wandered enough
// to move a ten-second run's medians by tens of percent between seeds.
type deck struct {
	rng   *rand.Rand
	cards []int
	next  int
}

func newDeck(rng *rand.Rand, n int) *deck {
	d := &deck{rng: rng, cards: make([]int, n), next: n}
	for i := range d.cards {
		d.cards[i] = i
	}
	return d
}

func (d *deck) draw() int {
	if d.next == len(d.cards) {
		d.rng.Shuffle(len(d.cards), func(i, j int) { d.cards[i], d.cards[j] = d.cards[j], d.cards[i] })
		d.next = 0
	}
	d.next++
	return d.cards[d.next-1]
}

// generator draws the request stream from the seed; the system receives
// only what it generates.
type generator struct {
	shapes *deck // CPU 1–3 × memory/disk scale 1–4 × class slot 0–3
	n      int
}

func newGenerator(seed int64, stream int) *generator {
	return &generator{shapes: newDeck(rand.New(rand.NewSource(seed*1009+int64(stream))), 3*4*4)}
}

// request draws one lifecycle request: 75 % guaranteed (exact CPU 1–3,
// memory, disk), 25 % controlled-load (a CPU range, degradation
// accepted). The driver stamps Start and End when it sends it.
func (g *generator) request(stream int) core.Request {
	card := g.shapes.draw()
	cpu, scale, controlled := float64(card%3+1), float64(card/3%4+1), card/12 == 3
	req := core.Request{
		Service: "simulation",
		Client:  fmt.Sprintf("c%d-%07d", stream, g.n),
		Class:   sla.ClassGuaranteed,
		Spec:    exactSpec(cpu, scale),
	}
	g.n++
	if controlled {
		req.Class = sla.ClassControlledLoad
		req.AcceptDegradation = true
		req.Spec = rangeSpec(cpu, scale)
	}
	return req
}

// exactSpec asks for exactly cpu nodes; rangeSpec for 1 to cpu+1, which
// lets the broker degrade and restore the session.
func exactSpec(cpu, scale float64) sla.Spec {
	return sla.NewSpec(
		sla.Exact(resource.CPU, cpu),
		sla.Exact(resource.MemoryMB, 128*scale),
		sla.Exact(resource.DiskGB, scale))
}

func rangeSpec(cpu, scale float64) sla.Spec {
	return sla.NewSpec(
		sla.Range(resource.CPU, 1, cpu+1),
		sla.Exact(resource.MemoryMB, 128*scale),
		sla.Exact(resource.DiskGB, scale))
}

// refusals are the broker's defined ways of answering "no" to an
// admission, a renegotiation or a hand-off: outcomes, not failures.
var refusals = []error{core.ErrCannotHonor, core.ErrNoDomainCanServe, core.ErrNoService, core.ErrOverBudget}

// admission is the outcome of one request of an admission call.
type admission struct {
	id  sla.ID
	err error
	// us is this request's share of the admission call's wall time.
	us float64
}

// target is how a workload's client reaches the system under test. sess
// is the harness's session number, carried only into trace spans.
type target interface {
	// admit sends reqs as one admission call.
	admit(reqs []core.Request, sess []int64, out []admission)
	accept(id sla.ID, sess int64) error
	invoke(id sla.ID, sess int64) error
	terminate(id sla.ID, sess int64) error
}

// meter collects what the end-to-end metrics are computed from. The two
// wire clients share one, hence the lock.
type meter struct {
	mu                          sync.Mutex
	admit, establish, terminate latency
	requests, admitted, active  int
	attempted, failed           int
}

// sampleBytes is the heap the meter's own samples occupy.
func (m *meter) sampleBytes() uint64 {
	return 4 * uint64(cap(m.admit.us)+cap(m.establish.us)+cap(m.terminate.us))
}

// liveSession is a session the client still holds.
type liveSession struct {
	id   sla.ID
	sess int64
}

// client is one closed-loop caller: it sends its next call only when the
// previous one has returned.
type client struct {
	e      *env
	stream int
	gen    *generator
	tgt    target
	live   []liveSession
	digest hash.Hash64
	sent   int // sessions this client has requested

	reqs []core.Request
	sess []int64
	adms []admission
}

func newClient(e *env, stream int, tgt target) *client {
	b := e.w.burst
	return &client{e: e, stream: stream, gen: newGenerator(e.seed, stream), tgt: tgt, digest: fnv.New64a(),
		reqs: make([]core.Request, b), sess: make([]int64, b), adms: make([]admission, b)}
}

// run drives n sessions through request → accept → invoke, terminating
// the oldest beyond the live limit.
func (c *client) run(n int) {
	e, w, m := c.e, c.e.w, c.e.m
	for done := 0; done < n; done += w.burst {
		g := e.tr.beginUnder("bench.generate", 0, 0)
		now := e.clock.Now()
		for i := range c.reqs {
			req := c.gen.request(c.stream)
			if w.brokers > 1 && (c.sent+i)%probeEvery == probeEvery-1 {
				req.Class, req.AcceptDegradation = sla.ClassGuaranteed, false
				req.Spec = sla.NewSpec(sla.Exact(resource.CPU, w.plan.Total().CPU+16))
			}
			req.Start, req.End = now, now.Add(1000*time.Hour)
			c.reqs[i] = req
			c.sess[i] = int64(c.stream)<<40 | int64(c.sent+i+1)
		}
		e.tr.end(g)

		c.tgt.admit(c.reqs, c.sess, c.adms)
		for i, a := range c.adms {
			if c.session(a, c.sess[i]) {
				c.live = append(c.live, liveSession{id: a.id, sess: c.sess[i]})
			}
		}
		c.sent += w.burst

		for len(c.live) > w.live {
			old := c.live[0]
			c.live = c.live[1:]
			t := time.Now()
			err := c.tgt.terminate(old.id, old.sess)
			us := float64(time.Since(t)) / 1e3
			m.mu.Lock()
			m.terminate.add(us)
			m.mu.Unlock()
			c.op('t', err)
		}
		if w.brokers > 1 && c.sent%migrateEvery == 0 && len(c.live) > 0 {
			e.migrate(c.live[0])
		}
		// Only the first client moves the clock, at the cluster-wide
		// rate of one second per clockStep sessions.
		if c.stream == 0 && c.sent%(clockStep/w.clients) == 0 {
			e.clock.Advance(time.Second)
		}
	}
}

// session records an admission's outcome and takes an admitted request
// through accept and invoke; it reports whether the session is Active.
func (c *client) session(a admission, sess int64) bool {
	m := c.e.m
	c.op('A', a.err)
	m.mu.Lock()
	m.requests++
	m.admit.add(a.us)
	if a.err == nil {
		m.admitted++
	}
	m.mu.Unlock()
	if a.err != nil {
		return false
	}
	t := time.Now()
	err := c.tgt.accept(a.id, sess)
	c.op('a', err)
	if err != nil {
		return false
	}
	err = c.tgt.invoke(a.id, sess)
	us := float64(time.Since(t)) / 1e3
	c.op('i', err)
	if err != nil {
		return false
	}
	m.mu.Lock()
	m.active++
	m.establish.add(a.us + us)
	m.mu.Unlock()
	return true
}

// op counts one operation and adds its outcome to the client's digest: ok
// on success, 'R' when the broker refused (one of refusals, or of the
// call's own also), else 'E' — a failure, the first of which is kept for
// the report.
func (c *client) op(ok byte, err error, also ...error) {
	tok := ok
	if err != nil {
		tok = 'E'
		for _, r := range append(also, refusals...) {
			if errors.Is(err, r) {
				tok = 'R'
			}
		}
	}
	m := c.e.m
	m.mu.Lock()
	m.attempted++
	if tok == 'E' {
		m.failed++
	}
	m.mu.Unlock()
	if tok == 'E' {
		c.e.noteFailure(err)
	}
	c.digest.Write([]byte{tok})
}

// directTarget calls one broker in process.
type directTarget struct {
	st *stack // read per call: recovery replaces st.broker
	tr *tracer
}

func (d directTarget) admit(reqs []core.Request, sess []int64, out []admission) {
	for i, req := range reqs {
		t := time.Now()
		s := d.tr.begin("core.request", sess[i])
		offer, err := d.st.broker.RequestService(req)
		d.tr.end(s)
		out[i] = admission{err: err, us: float64(time.Since(t)) / 1e3}
		if err == nil {
			out[i].id = offer.SLA.ID
		}
	}
}

func (d directTarget) accept(id sla.ID, sess int64) error {
	s := d.tr.begin("core.accept", sess)
	defer d.tr.end(s)
	return d.st.broker.Accept(id)
}

func (d directTarget) invoke(id sla.ID, sess int64) error {
	s := d.tr.begin("core.invoke", sess)
	defer d.tr.end(s)
	_, err := d.st.broker.Invoke(id)
	return err
}

func (d directTarget) terminate(id sla.ID, sess int64) error {
	s := d.tr.begin("core.terminate", sess)
	defer d.tr.end(s)
	return d.st.broker.Terminate(id, "window slide")
}

// intakeTarget admits a burst through the group-commit intake; the rest
// of the lifecycle is the direct path.
type intakeTarget struct{ directTarget }

func (d intakeTarget) admit(reqs []core.Request, sess []int64, out []admission) {
	b := d.st.broker
	tickets := make([]*core.IntakeTicket, len(reqs))
	t := time.Now()
	for i, req := range reqs {
		s := d.tr.begin("core.intake.submit", sess[i])
		tickets[i], out[i].err = b.Submit(req)
		d.tr.end(s)
	}
	s := d.tr.begin("core.intake.flush", 0)
	b.FlushIntake()
	d.tr.end(s)
	for i, tk := range tickets {
		if tk == nil {
			continue
		}
		s := d.tr.begin("core.intake.wait", sess[i])
		offer, err := tk.Wait()
		d.tr.end(s)
		out[i] = admission{err: err}
		if err == nil {
			out[i].id = offer.SLA.ID
		}
	}
	us := float64(time.Since(t)) / 1e3 / float64(len(reqs))
	for i := range out {
		out[i].us = us
	}
}
