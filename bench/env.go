package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"net"
	"net/http"
	"os"
	"sort"
	"sync"
	"time"

	"gqosm/internal/clockx"
	"gqosm/internal/cluster"
	"gqosm/internal/core"
	"gqosm/internal/invariant"
	"gqosm/internal/pricing"
	"gqosm/internal/resource"
	"gqosm/internal/sla"
)

// env is one assembled workload: the system under test, its clients and
// the meter. Set-up builds one, a pass runs rounds on it, finish checks
// its outputs.
type env struct {
	w     *workload
	seed  int64
	tr    *tracer
	clock *clockx.Manual
	m     *meter

	stacks   []*stack
	front    *cluster.Front
	srv      *http.Server
	srvDone  chan error
	endpoint string
	hcs      []*http.Client
	wire     wireStats
	walDir   string

	clients []*client
	over    *overloadDriver

	forwarded, migrations, migrateFailed, preemptions int

	failMu       sync.Mutex
	firstFailure error
}

// setUp assembles the workload and runs the warm untimed sessions through
// it.
func setUp(w *workload, seed int64, tr *tracer, workdir string) (e *env, err error) {
	e = &env{w: w, seed: seed, tr: tr, clock: clockx.NewManual(epoch), m: &meter{}}
	defer func() {
		if err != nil {
			e.close()
		}
	}()
	if w.durable {
		if e.walDir, err = os.MkdirTemp(workdir, "wal-"); err != nil {
			return nil, err
		}
	}
	var seamTr *tracer
	if w.seams {
		seamTr = tr
	}
	for i, plan := range w.plan.Split(w.brokers) {
		sc := stackConfig{domain: fmt.Sprintf("node-%d", i+1), plan: plan, walDir: e.walDir, intake: w.burst > 1, tr: seamTr}
		if w.brokers > 1 {
			sc.advertise = w.plan.Total()
		}
		st, err := newStack(e.clock, sc)
		if err != nil {
			return nil, err
		}
		e.stacks = append(e.stacks, st)
	}

	direct := directTarget{st: e.stacks[0], tr: tr}
	switch {
	case w.overload:
		rng := rand.New(rand.NewSource(seed))
		e.clients = []*client{newClient(e, 0, direct)} // outcome accounting and digest; its generator is unused
		e.over = &overloadDriver{e: e, c: e.clients[0], rng: rng, tgt: direct,
			kinds: newDeck(rng, 10), shapes: newDeck(rng, 3*4), holds: newDeck(rng, 51), willing: newDeck(rng, 10)}
	case w.brokers > 1:
		slots := make([]*cluster.Slot, len(e.stacks))
		for i, st := range e.stacks {
			slots[i] = cluster.NewSlot(st.broker)
		}
		if e.front, err = cluster.New(cluster.Config{Placement: cluster.PlaceHash}, slots...); err != nil {
			return nil, err
		}
		e.clients = []*client{newClient(e, 0, frontTarget{f: e.front, tr: tr, forwarded: &e.forwarded})}
	case w.transport != "":
		if err := e.listen(); err != nil {
			return nil, err
		}
		for i := 0; i < w.clients; i++ {
			tgt, hc := newWireTarget(w.transport, e.endpoint, tr, &e.wire)
			e.hcs = append(e.hcs, hc)
			e.clients = append(e.clients, newClient(e, i, tgt))
		}
	case w.burst > 1:
		e.clients = []*client{newClient(e, 0, intakeTarget{direct})}
	default:
		e.clients = []*client{newClient(e, 0, direct)}
	}

	e.round(warmSessions)
	if e.m.failed > 0 {
		return nil, fmt.Errorf("warm-up: %w", e.firstFailure)
	}
	e.m = &meter{}
	return e, nil
}

// listen serves the stack's handler on a loopback port, wrapped in the
// floor endpoint and, on traced runs, the span middleware.
func (e *env) listen() error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	var h http.Handler = e.stacks[0].mount()
	if e.tr != nil {
		h = traceMiddleware(e.tr, h)
	}
	e.srv = &http.Server{Handler: withFloor(h)}
	e.srvDone = make(chan error, 1)
	go func() { e.srvDone <- e.srv.Serve(ln) }()
	e.endpoint = "http://" + ln.Addr().String()
	return nil
}

// round runs n sessions (n operations on overload_adapt), split evenly
// between the clients, and waits for all of them.
func (e *env) round(n int) {
	if e.over != nil {
		e.over.run(n)
		return
	}
	if len(e.clients) == 1 {
		e.clients[0].run(n)
		return
	}
	var wg sync.WaitGroup
	for _, c := range e.clients {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			c.run(n / len(e.clients))
		}(c)
	}
	wg.Wait()
}

// prune is the long-lived deployment's quiesce-point housekeeping.
func (e *env) prune() {
	s := e.tr.begin("core.prune", 0)
	for _, st := range e.stacks {
		st.prune()
	}
	e.tr.end(s)
}

// digest folds every client's outcome digest, in client order.
func (e *env) digest() uint64 {
	h := fnv.New64a()
	for _, c := range e.clients {
		h.Write(c.digest.Sum(nil))
	}
	if e.over != nil {
		st := e.stacks[0]
		fmt.Fprintf(h, "d%.0f r%.0f", st.lifecycle("degrade"), st.lifecycle("restore"))
	}
	return h.Sum64()
}

func (e *env) noteFailure(err error) {
	e.failMu.Lock()
	if e.firstFailure == nil {
		e.firstFailure = err
	}
	e.failMu.Unlock()
}

// migrate hands the session to the least-loaded other broker, as a
// rebalancer would. A refused hand-off is an outcome
// (cluster.migrate_failed_ratio), not a failed operation.
func (e *env) migrate(s liveSession) {
	owner, ok := e.front.Owner(s.id)
	if !ok {
		return
	}
	sp := e.tr.begin("cluster.migrate", s.sess)
	target, least := "", 0.0
	for _, r := range e.front.Loads() {
		if r.Domain != owner && (target == "" || r.Load < least) {
			target, least = r.Domain, r.Load
		}
	}
	err := e.front.Migrate(s.id, target)
	e.tr.end(sp)
	e.migrations++
	if err != nil {
		e.migrateFailed++
	}
	// No room on the target is a refusal; so is a degraded session, which
	// a hand-off will not take.
	e.clients[0].op('m', err, core.ErrBadState)
}

// crashAndRecover kills the durable broker and recovers it from its WAL
// against the surviving substrates, checking that the recovered state
// digest equals the pre-crash one. It returns Crash-to-recovered time.
func (e *env) crashAndRecover() (time.Duration, error) {
	st := e.stacks[0]
	before, err := stateDigest(st.broker)
	if err != nil {
		return 0, err
	}
	t := time.Now()
	st.broker.Crash()
	if _, err := st.recoverBroker(); err != nil {
		return 0, fmt.Errorf("recover: %w", err)
	}
	took := time.Since(t)
	after, err := stateDigest(st.broker)
	if err != nil {
		return 0, err
	}
	if before != after {
		return 0, fmt.Errorf("recovered state differs from pre-crash state:\n pre  %s\n post %s", before, after)
	}
	return took, nil
}

// stateDigest renders what recovery must reproduce: every session, each
// shard allocator's book and the ledger.
func stateDigest(b *core.Broker) (string, error) {
	type shardState struct {
		Guaranteed []string
		AvailG     resource.Capacity
		AvailBE    resource.Capacity
		Offline    resource.Capacity
		BestEffort []core.BEState
		NextSeq    int
	}
	var d struct {
		Sessions  []core.SessionInfo
		Allocated map[string]resource.Capacity
		Shards    []shardState
		Net       float64
		Totals    map[int]float64
		Entries   int
	}
	d.Sessions = b.SessionInfos()
	for i := range d.Sessions {
		d.Sessions[i].ProposedAt = time.Time{} // not journaled for pre-stamp sessions
	}
	d.Allocated = make(map[string]resource.Capacity)
	for _, doc := range b.Sessions(nil) {
		d.Allocated[string(doc.ID)] = doc.Allocated
	}
	for _, a := range b.Allocators() {
		users := a.GuaranteedUsers()
		sort.Strings(users)
		offline, be, next := a.ExportAux()
		d.Shards = append(d.Shards, shardState{users, a.AvailableGuaranteed(), a.AvailableBestEffort(), offline, be, next})
	}
	b.Ledger().ExportWith(func(st pricing.State) {
		d.Net, d.Entries = st.Net, len(st.Entries)
		d.Totals = make(map[int]float64, len(st.Totals))
		for k, v := range st.Totals {
			d.Totals[int(k)] = v
		}
	})
	out, err := json.Marshal(d)
	return string(out), err
}

// probeInputs hands the layer probes what this run saw: the RSL strings
// and discovery query at the seams, and one live session's document.
func (e *env) probeInputs() probeInputs {
	var in probeInputs
	st := e.stacks[0]
	if st.seam != nil {
		in.rsl, in.query = st.seam.rsl, st.seam.query
	}
	if docs := st.broker.Sessions(func(d *sla.Document) bool { return !d.State.Terminal() }); len(docs) > 0 {
		in.doc = docs[0]
	}
	return in
}

// finish drains the workload and runs the output checks: every invariant
// suite clean, and the reservation tables empty once everything is
// terminal.
func (e *env) finish() error {
	if e.over != nil {
		e.over.drain(e.stacks[0].broker)
	}
	for _, c := range e.clients {
		for _, s := range c.live {
			c.op('t', c.tgt.terminate(s.id, s.sess))
		}
		c.live = nil
	}
	if e.front != nil {
		e.front.Quiesce()
	}
	if e.m.failed > 0 {
		return fmt.Errorf("%d of %d operations failed, first: %w", e.m.failed, e.m.attempted, e.firstFailure)
	}
	now := e.clock.Now()
	var errs []error
	brokers := make([]*core.Broker, len(e.stacks))
	for i, st := range e.stacks {
		brokers[i] = st.broker
		errs = append(errs,
			invariant.CheckAll(st.broker, now, st.pool),
			invariant.CheckReservations(st.broker, st.gara, invariant.ReservationCheck{Final: true}))
		for si, a := range st.broker.Allocators() {
			if users := a.GuaranteedUsers(); len(users) != 0 {
				errs = append(errs, fmt.Errorf("%s shard %d: %d guaranteed grant(s) survive the drain", st.cfg.Domain, si, len(users)))
			}
		}
	}
	if len(brokers) > 1 {
		errs = append(errs, invariant.CheckCluster(brokers...))
	}
	return errors.Join(errs...)
}

// close stops the listener, the brokers and removes the WAL directory.
func (e *env) close() {
	for _, hc := range e.hcs {
		hc.CloseIdleConnections()
	}
	if e.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		_ = e.srv.Shutdown(ctx) // the listener is ours and every client connection is idle
		cancel()
		<-e.srvDone
	}
	for _, st := range e.stacks {
		st.close()
	}
	if e.walDir != "" {
		os.RemoveAll(e.walDir)
	}
}
