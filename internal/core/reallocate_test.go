package core_test

// Tests for the one reallocation step (core.Broker.reallocate, DESIGN.md
// §18): every move that changes a live session's allocation, driven
// through every way the step can end. The resource manager is wrapped —
// no production hook — so the interleavings that matter (a teardown, or a
// competing admission, landing while gara.modify is in flight) are forced
// rather than hoped for.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"gqosm/internal/clockx"
	"gqosm/internal/core"
	"gqosm/internal/faultx"
	"gqosm/internal/gara"
	"gqosm/internal/gram"
	"gqosm/internal/invariant"
	"gqosm/internal/pricing"
	"gqosm/internal/registry"
	"gqosm/internal/resource"
	"gqosm/internal/rsl"
	"gqosm/internal/sla"
)

var reallocT0 = time.Date(2003, 6, 16, 9, 0, 0, 0, time.UTC)

// hookRM is the compute manager with a one-shot hook that runs after a
// Modify went through; the hook's error, if any, is the reply the broker
// sees (the reservation changed, the reply was lost).
type hookRM struct {
	gara.ResourceManager
	afterModify func() error
	modifies    int // Modify calls that reached the manager
}

func (m *hookRM) Modify(token string, spec *rsl.Node) error {
	m.modifies++
	if err := m.ResourceManager.Modify(token, spec); err != nil {
		return err
	}
	if hook := m.afterModify; hook != nil {
		m.afterModify = nil
		return hook()
	}
	return nil
}

// scene is one CPU-only broker (C_G 12, C_A 4, C_B 4) holding x, the
// controlled-load session under test (2–8 nodes, accepts degradation,
// opted in to promotions), and beside it what its sceneStart says: a
// 4-node guaranteed ballast session, or a controlled-load rival.
type scene struct {
	t     *testing.T
	b     *core.Broker
	clock *clockx.Manual
	g     *gara.System
	pool  *resource.Pool
	rm    *hookRM
	inj   *faultx.Injector
	x     sla.ID
	// target is x's restore target when the move starts.
	target resource.Capacity
}

func cpu(n float64) resource.Capacity { return resource.Capacity{CPU: n} }

// sceneStart is where a scene leaves x and the partition around it.
type sceneStart int

const (
	// atBest: x holds its best (8 nodes) beside the ballast; C_G is full.
	atBest sceneStart = iota
	// atLow: x holds 4 nodes with 4 nodes of headroom (a proposed session
	// held them while x was admitted and was then rejected, which runs no
	// scenario-2 pass).
	atLow
	// outbid: no ballast; x holds its best beside y, an earlier
	// controlled-load session of the same range held at its floor of 2 (a
	// proposed session held the rest while y was admitted), and 2 nodes of
	// headroom. The §5.3 pass — equal rates, ties to the earlier session —
	// gives y its best and x the 4 nodes that are left: the one way the
	// solver downsizes a session.
	outbid
)

func newScene(t *testing.T, start sceneStart, mods ...func(*core.Config)) *scene {
	t.Helper()
	s := &scene{t: t, clock: clockx.NewManual(reallocT0)}
	s.pool = resource.NewPool("p", cpu(20))
	s.rm = &hookRM{ResourceManager: gara.NewComputeManager(s.pool)}
	s.g = gara.NewSystem()
	s.g.RegisterManager(s.rm)
	reg := registry.New(s.clock)
	if _, err := reg.Register(registry.Service{
		Name: "simulation", Properties: []registry.Property{registry.NumProp("cpu-nodes", 20)},
	}); err != nil {
		t.Fatal(err)
	}
	gramM := gram.NewManager(s.clock)
	t.Cleanup(gramM.Close)
	s.inj = faultx.New(1, s.clock)
	cfg := core.Config{
		Domain: "site-a", Clock: s.clock,
		Plan:     core.CapacityPlan{Guaranteed: cpu(12), Adaptive: cpu(4), BestEffort: cpu(4)},
		Registry: reg, GARA: s.g, GRAM: gramM, Faults: s.inj,
		ConfirmWindow: time.Hour,
	}
	for _, mod := range mods {
		mod(&cfg)
	}
	b, err := core.NewBroker(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(b.Close)
	s.b = b

	controlled := func(client string) core.Request {
		return core.Request{
			Service: "simulation", Client: client, Class: sla.ClassControlledLoad,
			Spec:  sla.NewSpec(sla.Range(resource.CPU, 2, 8)),
			Start: reallocT0, End: reallocT0.Add(5 * time.Hour),
			AcceptDegradation: true, PromotionOptIn: true,
		}
	}
	reject := func(id sla.ID) {
		if err := b.Reject(id); err != nil {
			t.Fatal(err)
		}
	}
	var holder sla.ID
	switch start {
	case atBest:
		s.establish(s.guaranteed("ballast", 4))
	case atLow:
		s.establish(s.guaranteed("ballast", 4))
		holder = s.propose(s.guaranteed("holder", 4))
	case outbid:
		crowd := s.propose(s.guaranteed("crowd", 10))
		s.establish(controlled("y"))
		reject(crowd)
	}
	s.x = s.establish(controlled("x"))
	if _, err := b.Invoke(s.x); err != nil {
		t.Fatal(err)
	}
	if holder != "" {
		reject(holder)
	}
	return s
}

func (s *scene) guaranteed(client string, nodes float64) core.Request {
	return core.Request{
		Service: "simulation", Client: client, Class: sla.ClassGuaranteed,
		Spec:  sla.NewSpec(sla.Exact(resource.CPU, nodes)),
		Start: reallocT0, End: reallocT0.Add(5 * time.Hour),
	}
}

func (s *scene) propose(req core.Request) sla.ID {
	s.t.Helper()
	offer, err := s.b.RequestService(req)
	if err != nil {
		s.t.Fatalf("request %s: %v", req.Client, err)
	}
	return offer.SLA.ID
}

func (s *scene) establish(req core.Request) sla.ID {
	s.t.Helper()
	id := s.propose(req)
	if err := s.b.Accept(id); err != nil {
		s.t.Fatal(err)
	}
	return id
}

// squeeze fails enough of C_G that the admission bound min(C_G, C_G_eff +
// C_A) drops to bound nodes: a re-grant that would push guaranteed demand
// past it is granted only its floor.
func (s *scene) squeeze(bound float64) { s.b.NotifyFailure(cpu(12 + 4 - bound)) }

func (s *scene) info() core.SessionInfo {
	for _, info := range s.b.SessionInfos() {
		if info.ID == s.x {
			return info
		}
	}
	s.t.Fatalf("session %s vanished", s.x)
	return core.SessionInfo{}
}

// billed is x's net on the ledger: what it was charged minus refunds.
func (s *scene) billed() float64 {
	var net float64
	for _, e := range s.b.Ledger().Entries() {
		if e.SLA != s.x {
			continue
		}
		switch e.Kind {
		case pricing.EntryCharge, pricing.EntryPromotion:
			net += e.Amount
		case pricing.EntryRefund:
			net -= e.Amount
		}
	}
	return net
}

// check holds the books to what every outcome of the step must leave:
// allocator and document agree (a terminal session holds nothing), the
// ledger accounts for exactly the document's price, and the invariant
// oracle is clean — including, once everything is drained, the rules on
// what a torn-down session leaves behind.
func (s *scene) check() {
	s.t.Helper()
	doc, err := s.b.Session(s.x)
	if err != nil {
		s.t.Fatal(err)
	}
	grant, held := s.b.Allocator().GuaranteedAllocation(string(s.x))
	switch {
	case doc.State.Terminal() && held:
		s.t.Errorf("terminal session still holds %v", grant)
	case !doc.State.Terminal() && !grant.Equal(doc.Allocated):
		s.t.Errorf("allocator holds %v, document says %v", grant, doc.Allocated)
	}
	if net := s.billed(); math.Abs(net-doc.Price) > 1e-9 {
		s.t.Errorf("ledger nets %.4f for the session, document price is %.4f", net, doc.Price)
	}
	if err := invariant.CheckAll(s.b, s.clock.Now(), s.pool); err != nil {
		s.t.Errorf("invariants: %v", err)
	}
	s.inj.SetPlan("gara.modify", faultx.Plan{})
	for _, d := range s.b.Sessions(nil) {
		switch {
		case d.State == sla.StateProposed:
			_ = s.b.Reject(d.ID)
		case !d.State.Terminal():
			_ = s.b.Terminate(d.ID, "drain")
		}
	}
	s.b.ReconcileReservations()
	if err := invariant.CheckReservations(s.b, s.g, invariant.ReservationCheck{Final: true}); err != nil {
		s.t.Errorf("after drain: %v", err)
	}
}

// reallocMove is one of the six moves: the scene it starts from, what
// makes it, and what it declares — the allocation before and after, how
// it takes a shortfall, and the degraded flag and SLA state before and
// after.
type reallocMove struct {
	name     string
	scene    sceneStart
	prepare  func(s *scene)
	run      func(s *scene) error
	silent   bool // run cannot report that the move was not made
	rebases  bool // made, the move makes what it applied x's restore target
	from, to float64
	// onShort: "follow" (made at the floor), "keep" (document follows,
	// move not made), "refuse" (walked back), "" (the target is the
	// floor: no shortfall exists). bound is the squeeze that causes one
	// before run, unless short makes the move and causes it some other
	// way.
	onShort           string
	bound             float64
	short             func(s *scene) error
	degraded, becomes bool
	state, reaches    sla.State
}

var reallocMoves = []reallocMove{
	{
		name: "degrade", from: 8, to: 2,
		run:   func(s *scene) error { return s.b.DegradeToFloor(s.x) },
		state: sla.StateActive, becomes: true, reaches: sla.StateDegraded,
	},
	{
		name: "restore", from: 2, to: 8, onShort: "keep", bound: 8,
		prepare: func(s *scene) {
			if err := s.b.DegradeToFloor(s.x); err != nil {
				s.t.Fatal(err)
			}
		},
		run:      func(s *scene) error { return s.b.Restore(s.x) },
		degraded: true, state: sla.StateDegraded, reaches: sla.StateActive,
	},
	{
		name: "alternative-qos", from: 8, to: 2, silent: true,
		run: func(s *scene) error {
			s.b.HandleDegradation(s.x, cpu(5)) // measured below the agreed 8, above the floor
			return nil
		},
		state: sla.StateActive, becomes: true, reaches: sla.StateDegraded,
	},
	{
		name: "promotion", scene: atLow, from: 4, to: 8, onShort: "refuse", bound: 9, rebases: true,
		prepare: func(s *scene) {
			s.b.IssuePromotions()
			if offers := s.b.Promotions(); len(offers) != 1 || offers[0].SLA != s.x || !offers[0].To.Equal(cpu(8)) {
				s.t.Fatalf("promotion offers = %+v, want one for %s to 8 nodes", offers, s.x)
			}
		},
		run:   func(s *scene) error { return s.b.AcceptPromotion(s.x) },
		state: sla.StateActive, reaches: sla.StateActive,
	},
	{
		name: "optimizer", scene: outbid, from: 8, to: 4, onShort: "follow", silent: true, rebases: true,
		// A downsize asks for capacity it already holds, so it falls short
		// only when a failure lands between the solve and the grant.
		short: func(s *scene) error {
			_, err := s.b.RunOptimizerAcross(func() { s.squeeze(5) })
			return err
		},
		run: func(s *scene) error {
			_, err := s.b.RunOptimizer()
			return err
		},
		state: sla.StateActive, reaches: sla.StateActive,
	},
	{
		name: "renegotiate", from: 8, to: 6, onShort: "follow", bound: 8, rebases: true,
		run: func(s *scene) error {
			_, err := s.b.Renegotiate(s.x, sla.NewSpec(sla.Range(resource.CPU, 2, 6)))
			return err
		},
		state: sla.StateActive, reaches: sla.StateActive,
	},
}

// start builds the move's scene and checks it stands where the move
// declares it starts.
func (m *reallocMove) start(t *testing.T) *scene {
	t.Helper()
	s := newScene(t, m.scene)
	if m.prepare != nil {
		m.prepare(s)
	}
	doc, _ := s.b.Session(s.x)
	if info := s.info(); !doc.Allocated.Equal(cpu(m.from)) || info.State != m.state || info.Degraded != m.degraded {
		t.Fatalf("scene starts at %v %s degraded=%v, want %v nodes %s degraded=%v",
			doc.Allocated, info.State, info.Degraded, m.from, m.state, m.degraded)
	}
	s.target = s.b.RestoreTarget(s.x)
	return s
}

// expect asserts where the move left x: made (at nodes, with the flags
// and restore target it declares) or not made (at nodes, flags and
// restore target as they were). A shortfall the move follows is told
// from one it keeps by the restore target alone when the move has no
// flags to set.
func (m *reallocMove) expect(s *scene, err error, made bool, nodes float64) {
	s.t.Helper()
	if made && err != nil {
		s.t.Errorf("move failed: %v", err)
	}
	if !made && err == nil && !m.silent {
		s.t.Error("move reported success, want an error")
	}
	doc, _ := s.b.Session(s.x)
	info := s.info()
	wantState, wantDegraded := m.state, m.degraded
	if made {
		wantState, wantDegraded = m.reaches, m.becomes
	}
	if !doc.Allocated.Equal(cpu(nodes)) || info.State != wantState || info.Degraded != wantDegraded {
		s.t.Errorf("session at %v %s degraded=%v, want %v nodes %s degraded=%v",
			doc.Allocated, info.State, info.Degraded, nodes, wantState, wantDegraded)
	}
	wantTarget := s.target
	if made && m.rebases {
		wantTarget = cpu(nodes)
	}
	if got := s.b.RestoreTarget(s.x); !got.Equal(wantTarget) {
		s.t.Errorf("restore target %v, want %v", got, wantTarget)
	}
}

// tearDownMidFlight arms the resource manager so that the next modify
// succeeds and x is terminated before the broker can commit it. It
// returns the time of the teardown; the clock then moves on, so anything
// written afterwards is dated later.
func (s *scene) tearDownMidFlight() (at time.Time) {
	at = s.clock.Now()
	s.rm.afterModify = func() error {
		if err := s.b.Terminate(s.x, "client left mid-move"); err != nil {
			s.t.Errorf("terminate inside modify: %v", err)
		}
		s.clock.Advance(time.Second)
		return nil
	}
	return at
}

// TestReallocateTornDownMidFlight is the regression test for the race the
// step closes (ROADMAP 2(iv)): gara.modify succeeds, the session dies
// before the commit. Its terminal document must stand untouched — no
// degraded flag, nothing on the ledger after the teardown, no grant — for
// every move; before the step only renegotiation re-checked.
func TestReallocateTornDownMidFlight(t *testing.T) {
	for _, m := range reallocMoves {
		t.Run(m.name, func(t *testing.T) {
			s := m.start(t)
			price := func() float64 { doc, _ := s.b.Session(s.x); return doc.Price }()
			at := s.tearDownMidFlight()
			err := m.run(s)
			if s.rm.afterModify != nil {
				t.Fatal("the move never reached gara.modify")
			}
			if err == nil && !m.silent {
				t.Error("move reported success on a session torn down mid-flight")
			}
			doc, _ := s.b.Session(s.x)
			if info := s.info(); info.State != sla.StateTerminated || info.Degraded != m.degraded {
				t.Errorf("session is %s degraded=%v, want terminated degraded=%v", info.State, info.Degraded, m.degraded)
			}
			if !doc.Allocated.Equal(cpu(m.from)) || doc.Price != price {
				t.Errorf("terminal document rewritten: %v at %.2f, was %v nodes at %.2f", doc.Allocated, doc.Price, m.from, price)
			}
			for _, e := range s.b.Ledger().Entries() {
				if e.SLA == s.x && e.At.After(at) {
					t.Errorf("ledger entry after the teardown: %s %.2f (%s)", e.Kind, e.Amount, e.Note)
				}
			}
			if demand, held := s.b.Allocator().GuaranteedAllocation(string(s.x)); held {
				t.Errorf("allocator still holds %v for the terminated session", demand)
			}
			s.check()
		})
	}
}

// TestReallocateSecondMoveMidFlight forces the interleaving behind the
// doc-allocator-skew that `gridsim -parallel` hit about 3 runs in 1 000:
// the broker lock is dropped between a move's allocator grant and its
// document commit (gara.modify runs there), so a second move of the same
// session could re-grant and commit in the gap, and the first move then
// committed its own, older grant over it — document 5 nodes, allocator 3.
// The second move is refused while the first is in flight.
func TestReallocateSecondMoveMidFlight(t *testing.T) {
	s := newScene(t, atBest)
	var second error
	s.rm.afterModify = func() error {
		_, second = s.b.Renegotiate(s.x, sla.NewSpec(sla.Exact(resource.CPU, 3)))
		return nil
	}
	if _, err := s.b.Renegotiate(s.x, sla.NewSpec(sla.Exact(resource.CPU, 5))); err != nil {
		t.Fatalf("first move: %v", err)
	}
	if !errors.Is(second, core.ErrBadState) {
		t.Errorf("second move landing mid-flight: %v, want ErrBadState", second)
	}
	doc, _ := s.b.Session(s.x)
	if grant, _ := s.b.Allocator().GuaranteedAllocation(string(s.x)); !doc.Allocated.Equal(cpu(5)) || !grant.Equal(cpu(5)) {
		t.Errorf("document says %v, allocator holds %v, want the first move's 5 nodes in both", doc.Allocated, grant)
	}
	// The session moves again once the first move has committed.
	if _, err := s.b.Renegotiate(s.x, sla.NewSpec(sla.Exact(resource.CPU, 3))); err != nil {
		t.Errorf("move after the first committed: %v", err)
	}
	s.check()
}

// TestReallocateMatrix drives the six moves through the four other ways
// the step can end and holds the books after each.
func TestReallocateMatrix(t *testing.T) {
	for _, m := range reallocMoves {
		t.Run(m.name+"/full-grant", func(t *testing.T) {
			s := m.start(t)
			err := m.run(s)
			m.expect(s, err, true, m.to)
			s.check()
		})

		// The allocator grants only the floor of what the move asked for.
		t.Run(m.name+"/shortfall", func(t *testing.T) {
			if m.onShort == "" {
				t.Skip("the move's target is the floor: a shortfall cannot occur")
			}
			s := m.start(t)
			var err error
			if m.short != nil {
				err = m.short(s)
			} else {
				s.squeeze(m.bound)
				err = m.run(s)
			}
			switch m.onShort {
			case "follow":
				m.expect(s, err, true, 2)
			case "keep":
				m.expect(s, err, false, 2)
			case "refuse":
				m.expect(s, err, false, m.from)
				if !errors.Is(err, core.ErrBadState) {
					t.Errorf("err = %v, want ErrBadState", err)
				}
			}
			s.check()
		})

		// gara.modify is refused: the allocator is walked back.
		t.Run(m.name+"/modify-refused", func(t *testing.T) {
			s := m.start(t)
			s.inj.SetPlan("gara.modify", faultx.Plan{Rate: 1, Kinds: []faultx.Kind{faultx.KindError}})
			err := m.run(s)
			m.expect(s, err, false, m.from)
			s.check()
		})

		// The walk-back itself is refused: the documented quality no longer
		// fits, so the document follows the allocator and billing follows
		// the document.
		t.Run(m.name+"/rollback-refused", func(t *testing.T) {
			s := m.start(t)
			held := m.to
			switch {
			case m.to < m.from:
				// A downsize whose modify reply is lost after a competing
				// admission took the headroom it freed.
				s.rm.afterModify = func() error {
					s.propose(s.guaranteed("rival", m.from-m.to))
					return errors.New("rm: reply lost")
				}
			case m.onShort == "refuse":
				// A refused shortfall under a failure deep enough that the
				// documented quality no longer fits either.
				s.squeeze(7)
				held = 2
			default:
				t.Skip("an upgrade that fit leaves room for the smaller quality it replaced")
			}
			err := m.run(s)
			m.expect(s, err, false, held)
			s.check()
		})
	}
}

// TestReallocateUnchangedRestoreIsFree: with the guaranteed pool full, a
// restore is granted only the floor the degraded session already holds.
// That move changes nothing, so it costs nothing: no gara.modify, no WAL
// record, no ledger entry, the document byte for byte as it was.
func TestReallocateUnchangedRestoreIsFree(t *testing.T) {
	s := newScene(t, atBest, func(c *core.Config) { c.Durability.Dir = t.TempDir() })
	if err := s.b.DegradeToFloor(s.x); err != nil {
		t.Fatal(err)
	}
	s.establish(s.guaranteed("filler", 6)) // C_G is full again
	doc := func() []byte {
		d, err := s.b.Session(s.x)
		if err != nil {
			t.Fatal(err)
		}
		out, err := json.Marshal(d)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	before, entries := doc(), len(s.b.Ledger().Entries())
	modifies := s.rm.modifies
	appends, _, _ := s.b.WALStats()

	err := s.b.Restore(s.x)
	if !errors.Is(err, core.ErrShortfall) {
		t.Errorf("restore = %v, want the shortfall", err)
	}
	if n := s.rm.modifies - modifies; n != 0 {
		t.Errorf("no-op restore made %d gara.modify call(s), want 0", n)
	}
	if after, _, _ := s.b.WALStats(); after != appends {
		t.Errorf("no-op restore appended %d WAL record(s), want 0", after-appends)
	}
	if after := doc(); !bytes.Equal(after, before) {
		t.Errorf("document moved:\n%s\nwant\n%s", after, before)
	}
	if n := len(s.b.Ledger().Entries()); n != entries {
		t.Errorf("ledger grew by %d entries", n-entries)
	}
	if info := s.info(); !info.Degraded || info.State != sla.StateDegraded {
		t.Errorf("session %s degraded=%v, want still degraded", info.State, info.Degraded)
	}
	s.check()
}

// reservedSpec is the RSL GARA holds for x.
func (s *scene) reservedSpec() string {
	s.t.Helper()
	h, ok := s.g.FindByTag(string(s.x))
	if !ok {
		s.t.Fatal("no reservation for the session")
	}
	r, err := s.g.Get(h)
	if err != nil {
		s.t.Fatal(err)
	}
	return r.Spec
}

// TestReallocateStaleReservationIsResent: when GARA may not hold the
// documented quality, the session's next move re-sends the reservation
// although the grant is unchanged; only the move after that is free. The
// three ways there: rollback's stale branch moved the document, a modify
// failed after it may have committed, or the broker was recovered from
// its journal.
func TestReallocateStaleReservationIsResent(t *testing.T) {
	degrade := func(s *scene) error { return s.b.DegradeToFloor(s.x) }
	restore := func(s *scene) error {
		if err := s.b.Restore(s.x); !errors.Is(err, core.ErrShortfall) {
			return fmt.Errorf("restore = %v, want the shortfall", err)
		}
		return nil
	}
	for _, tc := range []struct {
		name  string
		start sceneStart
		setup func(s *scene, cfg *core.Config)
		move  func(s *scene) error // grants x the 2 nodes it documents
	}{
		{"rollback-refused", atLow, func(s *scene, _ *core.Config) {
			// The promotion falls short and is walked back, but x's 4 nodes
			// no longer fit: the document follows the allocator to 2 while
			// GARA still holds 4.
			s.b.IssuePromotions()
			s.squeeze(7)
			if err := s.b.AcceptPromotion(s.x); !errors.Is(err, core.ErrBadState) {
				t.Fatalf("promotion under the squeeze = %v, want ErrBadState", err)
			}
			if spec := s.reservedSpec(); !strings.Contains(spec, "(count=4)") {
				t.Fatalf("setup: reservation %q, want the old 4 nodes", spec)
			}
		}, degrade},
		{"failed-modify", atBest, func(s *scene, _ *core.Config) {
			// The restore to 8 commits at GARA, its reply is lost, and the
			// allocator is walked back to the documented 2.
			if err := degrade(s); err != nil {
				t.Fatal(err)
			}
			s.rm.afterModify = func() error { return errors.New("rm: reply lost") }
			if err := s.b.Restore(s.x); err == nil {
				t.Fatal("restore with a lost modify reply succeeded")
			}
			s.establish(s.guaranteed("filler", 6))
		}, restore},
		{"recovered", atBest, func(s *scene, cfg *core.Config) {
			if err := degrade(s); err != nil {
				t.Fatal(err)
			}
			s.establish(s.guaranteed("filler", 6))
			s.b.Crash()
			b, _, err := core.Recover(*cfg)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(b.Close)
			s.b = b
		}, restore},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var cfg *core.Config
			s := newScene(t, tc.start, func(c *core.Config) { c.Durability.Dir, cfg = t.TempDir(), c })
			tc.setup(s, cfg)
			for i, want := range []int{1, 0} {
				modifies := s.rm.modifies
				if err := tc.move(s); err != nil {
					t.Fatalf("move %d: %v", i, err)
				}
				if n := s.rm.modifies - modifies; n != want {
					t.Errorf("move %d made %d gara.modify call(s), want %d", i, n, want)
				}
			}
			if spec := s.reservedSpec(); !strings.Contains(spec, "(count=2)") {
				t.Errorf("reservation %q, want the documented 2 nodes", spec)
			}
			s.check()
		})
	}
}
