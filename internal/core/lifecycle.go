package core

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"time"

	"gqosm/internal/gram"
	"gqosm/internal/obs"
	"gqosm/internal/pricing"
	"gqosm/internal/resource"
	"gqosm/internal/rsl"
	"gqosm/internal/sla"
)

// errNoGRAM refuses an invocation on a broker configured without GRAM.
var errNoGRAM = errors.New("core: no GRAM configured")

// Invoke launches the Grid service for an established SLA: the job is
// submitted to GRAM and its process bound to the reservation (§3.1: "when
// a Grid service is launched, its process binds to a previously-made
// reservation"). The session enters the Active phase.
func (b *Broker) Invoke(id sla.ID) (gram.Job, error) {
	defer b.debugCheck("invoke")
	if b.cfg.GRAM == nil {
		return gram.Job{}, errNoGRAM
	}
	b.mu.Lock()
	s, ok := b.sessions[id]
	if !ok {
		b.mu.Unlock()
		return gram.Job{}, fmt.Errorf("%w: %s", ErrUnknownSession, id)
	}
	if state := s.doc.State; state != sla.StateEstablished {
		b.mu.Unlock()
		return gram.Job{}, fmt.Errorf("%w: %s is %s, want established", ErrBadState, id, state)
	}
	service := s.doc.Service
	end := s.doc.End
	handle := s.handle
	b.mu.Unlock()

	job, err := b.cfg.GRAM.Submit(jobRSL(service, end.Sub(b.clock.Now())), string(id))
	if err != nil {
		return gram.Job{}, fmt.Errorf("core: invoke %s: %w", id, err)
	}
	// Bind is idempotent on the GARA side, so retrying after a lost
	// reply is safe.
	if _, err := call(b.pol, "gara.bind", garaArgs{g: b.cfg.GARA, h: handle}, func(a garaArgs) (struct{}, error) {
		return struct{}{}, a.g.Bind(a.h)
	}); err != nil {
		_ = b.cfg.GRAM.Cancel(job.ID)
		return gram.Job{}, fmt.Errorf("core: bind %s: %w", id, err)
	}

	b.mu.Lock()
	if err := s.doc.Transition(sla.StateActive); err != nil {
		// A concurrent Terminate/Expire won the race after the job was
		// submitted; don't leave it running against a canceled
		// reservation.
		b.mu.Unlock()
		_ = b.cfg.GRAM.Cancel(job.ID)
		return gram.Job{}, err
	}
	s.job = job.ID
	var arr [160]byte
	b.logLine("invoke", id, appendInvokeLine(arr[:0], service, job.ID, job.PID))
	b.mu.Unlock()
	b.journal("persist", id)
	return job, nil
}

// jobRSL renders the GRAM job description for a session's service: its
// executable and the whole seconds left in the validity window (at least
// one). It is a pure function of those two, so sessions of one service
// and window submit the same string and GRAM's parse hits rsl.ParseCached;
// the SLA ID travels beside it as the job's label, as GARA's tag does
// beside the reservation RSL. The window is floored because on a wall
// clock every fractional remainder is new. The executable is quoted the
// RSL way, so a service name with a quote or a backslash reaches GRAM as
// itself.
func jobRSL(service string, window time.Duration) string {
	var arr [160]byte
	buf := append(arr[:0], "&(executable="...)
	buf = rsl.AppendQuoted(buf, "/grid/services/"+service)
	buf = append(buf, ")(duration="...)
	buf = strconv.AppendInt(buf, max(int64(window/time.Second), 1), 10)
	return string(append(buf, ')'))
}

// Terminate clears a session (Fig. 3's Clearing phase): the reservation is
// canceled, capacity released, and scenario-2 upgrades applied to the
// survivors.
func (b *Broker) Terminate(id sla.ID, reason string) error {
	defer b.debugCheck("terminate")
	if b.handoffBlocked(id) {
		// A teardown racing the migration window could leave the target
		// holding a session the source already billed as terminated;
		// CompleteHandoff owns the teardown for draining sessions.
		return fmt.Errorf("%w: %s", ErrHandoffPending, id)
	}
	if err := b.teardown(id, sla.StateTerminated, reason); err != nil {
		return err
	}
	b.met.terminated.Inc()
	// Scenario 2: "a service completes successfully, and its resources
	// are released. Adaptation can be used to increase resource
	// allocation for a selected number of existing services."
	b.afterRelease()
	return nil
}

// Expire marks a session whose validity window elapsed (resource
// reservation expiration, one of the §3 Clearing triggers).
func (b *Broker) Expire(id sla.ID) error {
	defer b.debugCheck("expire")
	if b.handoffBlocked(id) {
		return fmt.Errorf("%w: %s", ErrHandoffPending, id)
	}
	if err := b.teardown(id, sla.StateExpired, "validity period completed"); err != nil {
		return err
	}
	b.met.expired.Inc()
	b.afterRelease()
	return nil
}

// teardown is the Clearing step (Fig. 3): it moves a session to the
// terminal state and stops its confirm timer, releases its allocator
// grant, cancels its GRAM job if still running and gives its GARA
// reservation back.
func (b *Broker) teardown(id sla.ID, final sla.State, reason string) error {
	return b.teardownIf(id, final, reason, nil)
}

// teardownIf is teardown gated on pred, evaluated atomically with the
// terminal transition: concurrent paths (auto-expiry racing Accept, Reject
// racing Accept) use it so a session observed in one state cannot be torn
// down after another goroutine has already moved it on. It is the only
// code that ends a session: of two racing teardowns only the one that made
// the transition cancels the job and the reservation.
func (b *Broker) teardownIf(id sla.ID, final sla.State, reason string, pred func(*session) bool) error {
	started := b.clock.Now()
	b.mu.Lock()
	s, ok := b.sessions[id]
	if !ok {
		b.mu.Unlock()
		return fmt.Errorf("%w: %s", ErrUnknownSession, id)
	}
	prevState := s.doc.State
	if prevState.Terminal() {
		b.mu.Unlock()
		return fmt.Errorf("%w: %s already %s", ErrBadState, id, prevState)
	}
	if pred != nil && !pred(s) {
		b.mu.Unlock()
		return fmt.Errorf("%w: %s is %s", ErrBadState, id, prevState)
	}
	if err := s.doc.Transition(final); err != nil {
		b.mu.Unlock()
		return err
	}
	b.dropLive(s)
	if s.confirm != nil {
		s.confirm.Stop()
		s.confirm = nil
	}
	handle, job := s.handle, s.job
	delete(b.promotions, id)
	var arr [128]byte
	b.logLine("clearing", id, appendClearingLine(arr[:0], final, reason))
	// Release the grant while still holding b.mu: the terminal transition
	// and the release must be atomic, or a concurrent re-grant path
	// (restore, optimizer, promotion) could slip between them and leave a
	// terminal session holding capacity. Lock order b.mu → alloc.mu is
	// safe — the allocator never calls back into the broker.
	_ = b.alloc.ReleaseGuaranteed(string(id))
	b.mu.Unlock()

	// The job dies with its reservation; a migrated session is re-invoked
	// on the target.
	if job != "" && b.cfg.GRAM != nil {
		if j, err := b.cfg.GRAM.Job(job); err == nil && !j.State.Terminal() {
			_ = b.cfg.GRAM.Cancel(job)
		}
	}
	// A parked handle is the reconciliation sweep's: the session itself is
	// already terminal and its grant released.
	if err := b.giveBack(id, handle); err != nil && !errors.Is(err, ErrRMUnavailable) {
		b.logf("clearing", id, "reservation cancel: %v", err)
	}
	b.met.teardownSeconds.Observe(b.clock.Now().Sub(started).Seconds())
	b.journal("persist", id)
	return nil
}

// afterRelease applies scenario 2 to the released capacity: (a) restore
// previously degraded services; (b) upgrade below-best controlled-load
// services via the optimizer; (c) issue promotion offers to opted-in
// services.
func (b *Broker) afterRelease() {
	b.restoreDegraded() // (a)

	// (b) Upgrade below-best services where profitable.
	if out, err := b.RunOptimizer(); err == nil && out.Applied {
		b.logf("adapt", "", "scenario-2 optimizer upgrade: profit %+.2f", out.Gain)
	}

	// (c) Promotion offers for opted-in, below-best sessions.
	b.issuePromotions()
}

// restoreDegraded is scenario 2a: it restores degraded sessions to their
// pre-degradation quality, oldest SLA first, lock-free on the collected
// IDs. It runs after every release, on every monitor tick and when
// failed capacity returns. A session whose restore was refused is
// skipped until the allocator frees capacity: before that, the answer
// cannot change.
func (b *Broker) restoreDegraded() {
	frees := uint32(b.alloc.frees.Load())
	var degraded []sla.ID
	b.mu.Lock()
	for _, s := range b.live {
		if s.degraded && s.refusedAt != frees {
			degraded = append(degraded, s.doc.ID)
		}
	}
	b.mu.Unlock()
	slices.Sort(degraded)
	for _, id := range degraded {
		if err := b.restore(id); errors.Is(err, errShortfall) || errors.Is(err, ErrCannotHonor) {
			b.mu.Lock()
			if s, ok := b.sessions[id]; ok {
				s.refusedAt = frees
			}
			b.mu.Unlock()
		}
	}
}

// restore returns a degraded session to its original quality when
// capacity allows (scenario 2a and scenario-3 recovery). A partial grant
// is kept, but the session stays degraded until full restoration.
func (b *Broker) restore(id sla.ID) error {
	b.mu.Lock()
	s, ok := b.sessions[id]
	if !ok || !s.degraded {
		b.mu.Unlock()
		return fmt.Errorf("%w: degraded %s", ErrUnknownSession, id)
	}
	target := s.original
	b.mu.Unlock()
	b.met.restoreAttempts.Inc()
	_, err := b.reallocate(id, move{
		target: target, short: keepShort, notes: qualityNotes, mark: markRecovered,
		line:  restoredLine,
		count: b.met.restored, // scenario 2a
	})
	return err
}

// move describes one change to a live session's allocation. The paper's
// adaptation scenarios (§3.2) and client renegotiation are one act done
// for different reasons — move the session to another point inside its
// SLA, push the change to GARA, bill the difference — so each is a move
// handed to reallocate (DESIGN.md §18 has the table).
type move struct {
	// target (with toFloor: the specification's floor) is asked of the
	// allocator, which may grant only the floor (Algorithm 1): a shortfall.
	target  resource.Capacity
	toFloor bool
	short   shortfall
	// spec, when set, replaces the session's specification
	// (renegotiation); floor and reservation are then taken from it.
	spec *sla.Spec
	// notes label the ledger entry that charges or refunds the list-price
	// difference. A promotion bills offer instead, under notes[0].
	notes [2]string
	offer float64
	// A made move's effect on the degraded flag (with its SLA state), and
	// whether the applied quality becomes the restore target (original).
	mark   mark
	rebase bool
	// The activity-log line of a made move.
	line moveLine
	// count marks one of the paper's adaptation scenarios: the move is
	// counted under it and journaled once more.
	count *obs.Counter
}

// shortfall is what a move makes of a grant that fell to the floor.
type shortfall uint8

const (
	followShort shortfall = iota // the move is made at the granted quality
	keepShort                    // the document follows the grant, the move is not made (restore stays degraded)
	refuseShort                  // the allocator is walked back (a promotion sold the full upgrade)
)

// mark is a move's effect on the session's degraded flag.
type mark uint8

const (
	markDegraded  mark = iota + 1 // degraded; an active or violated SLA becomes degraded
	markRecovered                 // no longer degraded; a degraded SLA becomes active
)

// qualityNotes label the billing of an adaptation: services are "traded
// against cost" (§1.1), so delivered quality and billing move together.
var qualityNotes = [2]string{"quality upgrade", "quality degradation refund"}

// errShortfall reports a keepShort move granted only its floor.
var errShortfall = errors.New("core: insufficient capacity for the full quality")

// reallocation reports what reallocate did: the allocation replaced, the
// one applied, whether it fell short, and the amount added to the price.
type reallocation struct {
	old, applied resource.Capacity
	short        bool
	billed       float64
}

// reallocate is the one step that changes a live session's allocation:
// allocator move, reservation change at the resource manager, one commit
// of document, flags and price, then ledger and journal. Nothing is
// written to a terminal session: a teardown that wins the race during
// gara.modify has released the grant, and its final document stands. A
// session has one move in flight at a time: the broker lock is dropped
// round gara.modify, and a second move granted and committed in that gap
// would have its document overwritten by the first move's older grant.
func (b *Broker) reallocate(id sla.ID, m move) (r reallocation, err error) {
	// Liveness check and allocator call share one critical section: a
	// terminal transition releases the grant under the same lock, so it
	// cannot interleave and leave a terminal session holding capacity.
	b.mu.Lock()
	s, ok := b.sessions[id]
	if !ok || s.doc.State.Terminal() {
		b.mu.Unlock()
		return r, fmt.Errorf("%w: %s", ErrUnknownSession, id)
	}
	if s.moving {
		b.mu.Unlock()
		return r, fmt.Errorf("%w: %s has a reallocation in flight", ErrBadState, id)
	}
	spec := &s.doc.Spec
	if m.spec != nil {
		spec = m.spec
	}
	floor := spec.Floor()
	if m.toFloor {
		m.target = floor
	}
	grant, err := b.alloc.AllocateGuaranteed(string(id), m.target, m.target.Min(floor))
	if err != nil {
		b.mu.Unlock()
		return r, err // refused: the previous grant stands, nothing to walk back
	}
	r.applied, r.short = grant.Granted, !grant.Shortfall.IsZero()
	// A grant the reservation already holds, under the same spec and
	// with no offer to bill, needs no RM call. Not made as well, the
	// move changes nothing at all: no document, ledger or journal write.
	unchanged := m.spec == nil && m.offer == 0 && !s.stale && r.applied == s.doc.Allocated
	if unchanged && r.short && m.short == keepShort {
		b.mu.Unlock()
		return r, errShortfall
	}
	handle, rsl := s.handle, ""
	if !unchanged {
		rsl = reservationRSL(*spec, r.applied)
	}
	s.moving = true
	b.mu.Unlock()
	defer func() {
		b.mu.Lock()
		s.moving = false
		b.mu.Unlock()
	}()

	if r.short && m.short == refuseShort {
		b.rollback(id, m.spec, r.applied, false)
		return r, fmt.Errorf("%w: %s: capacity for %v no longer available", ErrBadState, id, m.target)
	}
	if !unchanged {
		if _, err := call(b.pol, "gara.modify", garaArgs{g: b.cfg.GARA, h: handle, rsl: rsl}, func(a garaArgs) (struct{}, error) {
			return struct{}{}, a.g.Modify(a.h, a.rsl)
		}); err != nil {
			// The document (and billing) keep the old quality, so the
			// allocator must be walked back too or the books skew. The
			// modify may have committed before it failed (a lost reply,
			// an abandoned attempt), so the reservation is stale.
			b.rollback(id, m.spec, r.applied, true)
			return r, fmt.Errorf("core: apply allocation %s: %w", id, err)
		}
	}

	b.mu.Lock()
	from := s.doc.State
	if from.Terminal() {
		b.mu.Unlock()
		return r, fmt.Errorf("%w: %s ended during reallocation", ErrBadState, id)
	}
	s.stale = false // modified, or already matching
	r.old, r.billed = b.book(s, m.spec, r.applied, m.offer)
	made := !r.short || m.short == followShort
	if made {
		switch m.mark {
		case markDegraded:
			s.degraded = true
			if from == sla.StateActive || from == sla.StateViolated {
				_ = s.doc.Transition(sla.StateDegraded)
			}
		case markRecovered:
			s.degraded = false
			if from == sla.StateDegraded {
				_ = s.doc.Transition(sla.StateActive)
			}
		}
		if m.rebase {
			s.original = r.applied
		}
		if m.line != noLine {
			var arr [160]byte
			b.logLine(m.line.kind(), id, m.line.appendTo(arr[:0], r.old, r.applied, r.billed))
		}
	}
	b.mu.Unlock()

	// Ledger, then the journaled document — but a promotion's entry after
	// the first record: each move's record order is its crash contract.
	if m.offer == 0 {
		b.bill(id, r.billed, m.notes, false)
	}
	b.journal("persist", id)
	if !made {
		return r, errShortfall
	}
	if m.count != nil {
		m.count.Inc()
		if m.offer != 0 {
			b.bill(id, r.billed, m.notes, true)
		}
		b.journal("persist", id)
	}
	return r, nil
}

// book writes a delivered quality into the session's document (caller
// holds b.mu): allocation, the specification when the move
// replaces it, and price — offer, or when zero the list-price difference.
// It returns the allocation it replaced and the amount added to the price.
func (b *Broker) book(s *session, spec *sla.Spec, c resource.Capacity, offer float64) (old resource.Capacity, billed float64) {
	old, billed = s.doc.Allocated, offer
	if offer == 0 {
		billed = b.prices.Cost(s.doc.Class, c) - b.prices.Cost(s.doc.Class, old)
	}
	if spec != nil {
		// The alternative-QoS fallback is re-derived from the new floor.
		// The spec is replaced, never written into (copy-on-write, sla.Spec):
		// an optimizer pass may still be reading the old one.
		s.doc.Spec = spec.Clone()
		s.doc.Adapt.AlternativeQoS = spec.Floor()
	}
	s.doc.Allocated = c
	s.doc.Price += billed
	s.top = holdsTop(s.doc.Spec, c)
	return old, billed
}

// bill records on the ledger what book added to a session's price.
func (b *Broker) bill(id sla.ID, amount float64, notes [2]string, promotion bool) {
	e := pricing.Entry{Kind: pricing.EntryCharge, SLA: id, Amount: amount, At: b.clock.Now(), Note: notes[0]}
	switch {
	case promotion:
		e.Kind = pricing.EntryPromotion
	case amount < 0:
		e.Kind, e.Amount, e.Note = pricing.EntryRefund, -amount, notes[1]
	case amount == 0:
		return
	}
	b.ledger.Record(e)
}

// rollback is the one way back for a move that shifted the allocator to
// held and could not be completed: the documented quality is re-granted,
// all or nothing. If its capacity was snapped up meanwhile (a downsize
// whose freed headroom another session took) the allocator keeps held and
// the document is moved to match, billed at list price — delivered
// quality and billing move together. Either way document and allocator
// agree again. A moved document no longer matches the reservation, which
// is marked stale (DESIGN.md §18), as it is whenever stale says a failed
// modify may have changed it; the session's next move re-sends it. spec is the specification held was
// granted under when the move replaces it. A session torn down meanwhile
// needs nothing: its grant is released.
func (b *Broker) rollback(id sla.ID, spec *sla.Spec, held resource.Capacity, stale bool) {
	b.mu.Lock()
	s, ok := b.sessions[id]
	if !ok || s.doc.State.Terminal() {
		b.mu.Unlock()
		return
	}
	s.stale = s.stale || stale
	prev := s.doc.Allocated
	if _, err := b.alloc.AllocateGuaranteed(string(id), prev, prev); err == nil {
		b.mu.Unlock()
		// The failed grant (and this re-grant) may have preempted
		// best-effort users.
		b.journalAux("rollback")
		return
	}
	_, delta := b.book(s, spec, held, 0)
	s.stale = true
	b.logf("adapt", id, "failed modify: allocator kept %v, reservation spec stale", held)
	b.mu.Unlock()
	b.bill(id, delta, qualityNotes, false)
	b.journal("persist", id)
}

// issuePromotions creates scenario-2(c) promotion offers for active
// controlled-load sessions that opted in and run below their best quality.
func (b *Broker) issuePromotions() {
	type cand struct {
		id   sla.ID
		doc  *sla.Document
		best resource.Capacity
	}
	b.mu.Lock()
	var cands []cand
	for _, s := range b.live {
		if s.doc.State != sla.StateActive && s.doc.State != sla.StateEstablished {
			continue
		}
		if !s.doc.Adapt.PromotionOffers {
			continue
		}
		id := s.doc.ID
		if _, open := b.promotions[id]; open {
			continue
		}
		best := s.doc.Spec.Best()
		if best.Sub(s.doc.Allocated).ClampMin(resource.Capacity{}).IsZero() {
			continue
		}
		cands = append(cands, cand{id: id, doc: s.doc.Clone(), best: best})
	}
	b.mu.Unlock()
	sort.Slice(cands, func(i, j int) bool { return cands[i].id < cands[j].id })

	for _, c := range cands {
		// Offer only what currently fits.
		headroom := b.alloc.AvailableGuaranteed()
		target := c.doc.Spec.Clamp(c.doc.Allocated.Add(headroom).Min(c.best))
		if target.Sub(c.doc.Allocated).ClampMin(resource.Capacity{}).IsZero() {
			continue
		}
		offer, ok := b.prices.Promotion(c.doc, target, b.clock.Now().Add(b.cfg.ConfirmWindow))
		if !ok {
			continue
		}
		b.mu.Lock()
		b.promotions[c.id] = offer
		b.logf("promotion", c.id, "offered upgrade %v -> %v at %.2f (list %.2f)",
			offer.From, offer.To, offer.OfferPrice, offer.ListPrice)
		b.mu.Unlock()
	}
}

// Promotions returns the open promotion offers, ordered by SLA ID.
func (b *Broker) Promotions() []pricing.PromotionOffer {
	var out []pricing.PromotionOffer
	b.mu.Lock()
	for _, o := range b.promotions {
		out = append(out, o)
	}
	b.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].SLA < out[j].SLA })
	return out
}

// AcceptPromotion applies an open promotion offer: the session is upgraded
// and the discounted increment charged.
func (b *Broker) AcceptPromotion(id sla.ID) error {
	defer b.debugCheck("promotion")
	b.mu.Lock()
	offer, ok := b.promotions[id]
	delete(b.promotions, id) // accepted, expired or refused: the offer is spent
	b.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: no open promotion for %s", ErrUnknownSession, id)
	}
	if b.clock.Now().After(offer.Expires) {
		return fmt.Errorf("%w: promotion for %s expired", ErrBadState, id)
	}

	// Capacity may have changed since the offer: a shortfall refuses the
	// upgrade and walks the allocator back.
	if _, err := b.reallocate(id, move{
		target: offer.To, short: refuseShort, offer: offer.OfferPrice, notes: [2]string{"promotion accepted"}, rebase: true,
		line:  promotedLine,
		count: b.met.promoted, // scenario 2c
	}); err != nil {
		return fmt.Errorf("core: promotion %s: %w", id, err)
	}
	return nil
}

// OptimizeOutcome reports a RunOptimizer pass.
type OptimizeOutcome struct {
	// Considered is the number of controlled-load sessions in the
	// problem.
	Considered int
	// Gain is the profit improvement of the best assignment over the
	// current one.
	Gain float64
	// Applied reports whether the pass changed at least one session's
	// allocation (Changed > 0).
	Applied bool
	// Changed counts sessions whose allocation changed.
	Changed int
}

// RunOptimizer executes the §5.3 heuristic over active controlled-load
// sessions: "the optimization heuristic is executed periodically by the
// AQoS broker; if there is a considerable gain in terms of benefits to the
// Grid Service provider, resources allocation is accordingly modified."
// The live controlled-load sessions compete for what they hold plus the
// partition's headroom. A pass whose input proves the solve can apply
// nothing (optimizerInput) only counts them.
func (b *Broker) RunOptimizer() (OptimizeOutcome, error) {
	defer b.debugCheck("optimize")
	w := optPool.Get().(*optWorkspace)
	defer w.release()
	out, apply, err := b.solveOptimizer(w)
	if apply {
		out = b.applyOptimizer(w, out)
	}
	return out, err
}

// solveOptimizer is the decision half of a §5.3 pass: it fills w with the
// input and, unless the input proves the solve can apply nothing, solves
// it into w.assign. apply reports that the assignment clears the gain
// threshold and is to be applied.
func (b *Broker) solveOptimizer(w *optWorkspace) (out OptimizeOutcome, apply bool, err error) {
	b.met.optimizerRuns.Inc()
	noop := b.optimizerInput(w)
	out.Considered = len(w.services)
	if noop || len(w.services) == 0 {
		return out, false, nil
	}
	b.met.optimizerSolves.Inc()

	problem := b.optimizerProblem(w)
	if err := w.greedy(problem); err != nil {
		return OptimizeOutcome{}, false, err
	}
	out.Gain = problem.profit(w.assign) - problem.profit(w.held)
	return out, out.Gain >= b.cfg.MinOptimizerGain, nil
}

// applyOptimizer is the acting half of a §5.3 pass: it moves each of w's
// services to its solved assignment and counts the moves in out.
func (b *Broker) applyOptimizer(w *optWorkspace, out OptimizeOutcome) OptimizeOutcome {
	// The assignment fits the pool jointly, but it is applied one
	// session at a time: an upgrade applied before the downsizes that
	// fund it transiently over-demands the pool and collapses to a
	// floor grant. Downsizes go first, each pass in id order, so every
	// intermediate state stays within capacity and the pass stays
	// deterministic.
	for _, downsizes := range [2]bool{true, false} {
		for i, svc := range w.services {
			target, held := w.assign[i], w.held[i]
			if target.FitsIn(held) != downsizes || target.Equal(held) {
				continue
			}
			r, err := b.reallocate(svc.ID, move{target: target, notes: qualityNotes, rebase: true})
			if r.short {
				// The pool moved between solve and apply (a concurrent
				// admission took the headroom): only the floor was granted.
				b.logf("optimize", svc.ID, "partial grant %v for target %v, document follows", r.applied, target)
			}
			if err != nil {
				continue // skip this session; others may still improve
			}
			b.journal("optimize", svc.ID)
			if !r.applied.Equal(held) {
				out.Changed++
			}
		}
	}
	if out.Applied = out.Changed > 0; out.Applied {
		b.met.optimizerApplied.Inc()
		b.logf("optimize", "", "reallocated %d/%d controlled-load sessions, profit gain %.2f",
			out.Changed, out.Considered, out.Gain)
	}
	return out
}

// optimizerInput fills w with the §5.3 pass's services — the live
// controlled-load sessions that are not degraded, in ID order — and what
// each holds now. It reports noop when the input proves that the solve
// can apply nothing (DESIGN.md §3.3): the gain threshold and every
// controlled-load rate are positive, every service holds the top of its
// levels (session.top) and the guaranteed headroom is at least zero in
// every dimension. w.services is then left unordered and w.held
// empty: the pass only counts them.
func (b *Broker) optimizerInput(w *optWorkspace) (noop bool) {
	rates := b.prices.ClassRates(sla.ClassControlledLoad)
	noop = b.cfg.MinOptimizerGain > 0
	for _, k := range resource.Kinds {
		noop = noop && rates.Rate(k) > 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	for _, s := range b.live {
		if s.doc.Class != sla.ClassControlledLoad {
			continue
		}
		if s.doc.State != sla.StateActive && s.doc.State != sla.StateEstablished {
			continue
		}
		if s.degraded {
			continue // scenario-3/1 victims are restored explicitly
		}
		// A live document's spec is copy-on-write (sla.Spec): the map
		// shared here is never written again, so the solve reads it
		// after the lock is dropped.
		w.services = append(w.services, OptService{ID: s.doc.ID, Spec: s.doc.Spec, Rates: rates})
		noop = noop && s.top
	}
	if noop {
		if avail := b.alloc.AvailableGuaranteed(); avail.ClampMin(resource.Capacity{}) == avail {
			return true
		}
	}
	b.orderOptimizerInputLocked(w)
	return false
}

// optimizerProblem is the §5.3 problem over w's services. The capacity
// available to them is what they hold now plus the guaranteed-side
// headroom.
func (b *Broker) optimizerProblem(w *optWorkspace) OptProblem {
	problem := OptProblem{Services: w.services, Capacity: b.alloc.AvailableGuaranteed()}
	for _, held := range w.held {
		problem.Capacity = problem.Capacity.Add(held)
	}
	return problem
}

// orderOptimizerInputLocked sorts w.services by ID and records what each
// holds now in w.held. The caller holds b.mu.
func (b *Broker) orderOptimizerInputLocked(w *optWorkspace) {
	slices.SortFunc(w.services, func(x, y OptService) int { return cmp.Compare(x.ID, y.ID) })
	for _, svc := range w.services {
		w.held = append(w.held, b.sessions[svc.ID].doc.Allocated)
	}
}
