package core

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"gqosm/internal/gara"
	"gqosm/internal/gram"
	"gqosm/internal/obs"
	"gqosm/internal/pricing"
	"gqosm/internal/resource"
	"gqosm/internal/sla"
)

// Invoke launches the Grid service for an established SLA: the job is
// submitted to GRAM and its process bound to the reservation (§3.1: "when
// a Grid service is launched, its process binds to a previously-made
// reservation"). The session enters the Active phase.
func (b *Broker) Invoke(id sla.ID) (gram.Job, error) {
	defer b.debugCheck("invoke")
	if b.cfg.GRAM == nil {
		return gram.Job{}, fmt.Errorf("core: no GRAM configured")
	}
	sh := b.shardFor(id)
	if sh == nil {
		return gram.Job{}, fmt.Errorf("%w: %s", ErrUnknownSession, id)
	}
	sh.mu.Lock()
	s, ok := sh.sessions[id]
	if !ok {
		sh.mu.Unlock()
		return gram.Job{}, fmt.Errorf("%w: %s", ErrUnknownSession, id)
	}
	if state := s.doc.State; state != sla.StateEstablished {
		sh.mu.Unlock()
		return gram.Job{}, fmt.Errorf("%w: %s is %s, want established", ErrBadState, id, state)
	}
	service := s.doc.Service
	end := s.doc.End
	handle := s.handle
	sh.mu.Unlock()

	duration := end.Sub(b.clock.Now()).Seconds()
	jobRSL := fmt.Sprintf(`&(executable=%q)(duration=%s)(label=%q)`,
		"/grid/services/"+service, trimFloat(max(duration, 1)), string(id))
	job, err := b.cfg.GRAM.Submit(jobRSL)
	if err != nil {
		return gram.Job{}, fmt.Errorf("core: invoke %s: %w", id, err)
	}
	// Bind is idempotent on the GARA side, so retrying after a lost
	// reply is safe.
	if err := b.pol.call("gara.bind", func() error {
		return b.cfg.GARA.Bind(handle, bindParamFor(job))
	}); err != nil {
		_ = b.cfg.GRAM.Cancel(job.ID)
		return gram.Job{}, fmt.Errorf("core: bind %s: %w", id, err)
	}

	sh.mu.Lock()
	if err := s.doc.Transition(sla.StateActive); err != nil {
		// A concurrent Terminate/Expire won the race after the job was
		// submitted; don't leave it running against a canceled
		// reservation.
		sh.mu.Unlock()
		_ = b.cfg.GRAM.Cancel(job.ID)
		return gram.Job{}, err
	}
	s.job = job.ID
	b.logf("invoke", id, "service %q launched as %s (pid %d), reservation claimed", service, job.ID, job.PID)
	sh.mu.Unlock()
	b.journal("persist", id)
	return job, nil
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
	sh := b.shardFor(id)
	if sh == nil {
		return fmt.Errorf("%w: %s", ErrUnknownSession, id)
	}
	sh.mu.Lock()
	s, ok := sh.sessions[id]
	if !ok {
		sh.mu.Unlock()
		return fmt.Errorf("%w: %s", ErrUnknownSession, id)
	}
	if state := s.doc.State; state.Terminal() {
		sh.mu.Unlock()
		return fmt.Errorf("%w: %s already %s", ErrBadState, id, state)
	}
	if s.confirm != nil {
		s.confirm.Stop()
		s.confirm = nil
	}
	job := s.job
	sh.mu.Unlock()

	if job != "" && b.cfg.GRAM != nil {
		if j, err := b.cfg.GRAM.Job(job); err == nil && !j.State.Terminal() {
			_ = b.cfg.GRAM.Cancel(job)
		}
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

// terminateForCompensation clears a willing session during scenario-1
// compensation: like Terminate, but without the scenario-2 release hook
// (which would re-absorb the capacity being freed).
func (b *Broker) terminateForCompensation(id sla.ID) error {
	sh := b.shardFor(id)
	if sh == nil {
		return fmt.Errorf("%w: %s", ErrUnknownSession, id)
	}
	sh.mu.Lock()
	s, ok := sh.sessions[id]
	var job gram.JobID
	if ok {
		if s.confirm != nil {
			s.confirm.Stop()
			s.confirm = nil
		}
		job = s.job
	}
	sh.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownSession, id)
	}
	if job != "" && b.cfg.GRAM != nil {
		if j, err := b.cfg.GRAM.Job(job); err == nil && !j.State.Terminal() {
			_ = b.cfg.GRAM.Cancel(job)
		}
	}
	err := b.teardown(id, sla.StateTerminated,
		"terminated to compensate for a new request (scenario 1)")
	if err == nil {
		b.met.terminated.Inc()
	}
	return err
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

// teardown releases a session's allocator grant and GARA reservation and
// moves it to the terminal state.
func (b *Broker) teardown(id sla.ID, final sla.State, reason string) error {
	return b.teardownIf(id, final, reason, nil)
}

// teardownIf is teardown gated on pred, evaluated atomically with the
// terminal transition: concurrent paths (auto-expiry racing Accept, Reject
// racing Accept) use it so a session observed in one state cannot be torn
// down after another goroutine has already moved it on.
func (b *Broker) teardownIf(id sla.ID, final sla.State, reason string, pred func(*session) bool) error {
	started := time.Now()
	sh := b.shardFor(id)
	if sh == nil {
		return fmt.Errorf("%w: %s", ErrUnknownSession, id)
	}
	sh.mu.Lock()
	s, ok := sh.sessions[id]
	if !ok {
		sh.mu.Unlock()
		return fmt.Errorf("%w: %s", ErrUnknownSession, id)
	}
	prevState := s.doc.State
	if prevState.Terminal() {
		sh.mu.Unlock()
		return fmt.Errorf("%w: %s already %s", ErrBadState, id, prevState)
	}
	if pred != nil && !pred(s) {
		sh.mu.Unlock()
		return fmt.Errorf("%w: %s is %s", ErrBadState, id, prevState)
	}
	if err := s.doc.Transition(final); err != nil {
		sh.mu.Unlock()
		return err
	}
	if s.confirm != nil {
		s.confirm.Stop()
		s.confirm = nil
	}
	handle := s.handle
	delete(sh.promotions, id)
	b.logf("clearing", id, "%s: %s", final, reason)
	// Release the grant while still holding sh.mu: the terminal
	// transition and the release must be atomic, or a concurrent re-grant
	// path (restore, optimizer, promotion) could slip between them and
	// leave a terminal session holding capacity. Lock order sh.mu →
	// sh.alloc.mu is safe — the allocator never calls back into the
	// broker.
	_ = sh.alloc.ReleaseGuaranteed(string(id))
	sh.mu.Unlock()

	if err := b.pol.call("gara.cancel", func() error {
		return b.cfg.GARA.Cancel(handle)
	}); err != nil {
		if errors.Is(err, ErrRMUnavailable) {
			// The RM stayed down through the whole retry budget: park the
			// handle so the reconciliation sweep keeps trying. The session
			// itself is already terminal and its grant released.
			b.parkCancel(id, handle)
		} else {
			b.logf("clearing", id, "reservation cancel: %v", err)
		}
	}
	b.met.teardownSeconds.Observe(time.Since(started).Seconds())
	b.journal("persist", id)
	return nil
}

// afterRelease applies scenario 2 to the released capacity: (a) restore
// previously degraded services; (b) upgrade below-best controlled-load
// services via the optimizer; (c) issue promotion offers to opted-in
// services.
func (b *Broker) afterRelease() {
	// (a) Restore degraded sessions to their pre-degradation quality,
	// oldest SLA first across the whole domain. Shards are visited in
	// index order, one lock at a time; the restore pass itself runs
	// lock-free on the collected IDs.
	var degraded []sla.ID
	for _, sh := range b.shards {
		sh.mu.Lock()
		for id, s := range sh.sessions {
			if s.degraded && !s.doc.State.Terminal() {
				degraded = append(degraded, id)
			}
		}
		sh.mu.Unlock()
	}
	sort.Slice(degraded, func(i, j int) bool { return degraded[i] < degraded[j] })
	for _, id := range degraded {
		_ = b.restore(id)
	}

	// (b) Upgrade below-best services where profitable.
	if out, err := b.RunOptimizer(); err == nil && out.Applied {
		b.logf("adapt", "", "scenario-2 optimizer upgrade: profit %+.2f", out.Gain)
	}

	// (c) Promotion offers for opted-in, below-best sessions.
	b.issuePromotions()
}

// restore returns a degraded session to its original quality when
// capacity allows (scenario 2a and scenario-3 recovery). A partial grant
// is kept, but the session stays degraded until full restoration.
func (b *Broker) restore(id sla.ID) error {
	sh := b.shardFor(id)
	if sh == nil {
		return fmt.Errorf("%w: degraded %s", ErrUnknownSession, id)
	}
	sh.mu.Lock()
	s, ok := sh.sessions[id]
	if !ok || !s.degraded {
		sh.mu.Unlock()
		return fmt.Errorf("%w: degraded %s", ErrUnknownSession, id)
	}
	target := s.original
	sh.mu.Unlock()
	_, err := b.reallocate(sh, id, move{
		target: target, short: keepShort, notes: qualityNotes, mark: markRecovered,
		event: "adapt", msg: "restored to %[2]v (scenario 2a)",
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
	// The activity-log event of a made move; msg's verbs index previous
	// allocation, applied allocation and amount billed.
	event, msg string
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
// session has one move in flight at a time: the shard lock is dropped
// round gara.modify, and a second move granted and committed in that gap
// would have its document overwritten by the first move's older grant.
func (b *Broker) reallocate(sh *shard, id sla.ID, m move) (r reallocation, err error) {
	// Liveness check and allocator call share one critical section: a
	// terminal transition releases the grant under the same lock, so it
	// cannot interleave and leave a terminal session holding capacity.
	sh.mu.Lock()
	s, ok := sh.sessions[id]
	if !ok || s.doc.State.Terminal() {
		sh.mu.Unlock()
		return r, fmt.Errorf("%w: %s", ErrUnknownSession, id)
	}
	if s.moving {
		sh.mu.Unlock()
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
	grant, err := sh.alloc.AllocateGuaranteed(string(id), m.target, m.target.Min(floor))
	if err != nil {
		sh.mu.Unlock()
		return r, err // refused: the previous grant stands, nothing to walk back
	}
	r.applied, r.short = grant.Granted, !grant.Shortfall.IsZero()
	handle, rsl := s.handle, reservationRSL(*spec, r.applied)
	s.moving = true
	sh.mu.Unlock()
	defer func() {
		sh.mu.Lock()
		s.moving = false
		sh.mu.Unlock()
	}()

	if r.short && m.short == refuseShort {
		b.rollback(sh, id, m.spec, r.applied)
		return r, fmt.Errorf("%w: %s: capacity for %v no longer available", ErrBadState, id, m.target)
	}
	if err := b.pol.call("gara.modify", func() error {
		return b.cfg.GARA.Modify(handle, rsl)
	}); err != nil {
		// The document (and billing) keep the old quality, so the
		// allocator must be walked back too or the books skew.
		b.rollback(sh, id, m.spec, r.applied)
		return r, fmt.Errorf("core: apply allocation %s: %w", id, err)
	}

	sh.mu.Lock()
	from := s.doc.State
	if from.Terminal() {
		sh.mu.Unlock()
		return r, fmt.Errorf("%w: %s ended during reallocation", ErrBadState, id)
	}
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
		if m.event != "" {
			b.logf(m.event, id, m.msg, r.old, r.applied, r.billed)
		}
	}
	sh.mu.Unlock()

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
// holds the shard lock): allocation, the specification when the move
// replaces it, and price — offer, or when zero the list-price difference.
// It returns the allocation it replaced and the amount added to the price.
func (b *Broker) book(s *session, spec *sla.Spec, c resource.Capacity, offer float64) (old resource.Capacity, billed float64) {
	old, billed = s.doc.Allocated, offer
	if offer == 0 {
		billed = b.prices.Cost(s.doc.Class, c) - b.prices.Cost(s.doc.Class, old)
	}
	if spec != nil {
		// The alternative-QoS fallback is re-derived from the new floor.
		s.doc.Spec = spec.Clone()
		s.doc.Adapt.AlternativeQoS = spec.Floor()
	}
	s.doc.Allocated = c
	s.doc.Price += billed
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
// agree again; the reservation may be stale until the next successful
// modify or teardown, which is logged. spec is the specification held was
// granted under when the move replaces it. A session torn down meanwhile
// needs nothing: its grant is released.
func (b *Broker) rollback(sh *shard, id sla.ID, spec *sla.Spec, held resource.Capacity) {
	sh.mu.Lock()
	s, ok := sh.sessions[id]
	if !ok || s.doc.State.Terminal() {
		sh.mu.Unlock()
		return
	}
	prev := s.doc.Allocated
	if _, err := sh.alloc.AllocateGuaranteed(string(id), prev, prev); err == nil {
		sh.mu.Unlock()
		// The failed grant (and this re-grant) may have preempted
		// best-effort users.
		b.journalShardAux("rollback", sh)
		return
	}
	_, delta := b.book(s, spec, held, 0)
	b.logf("adapt", id, "failed modify: allocator kept %v, reservation spec stale", held)
	sh.mu.Unlock()
	b.bill(id, delta, qualityNotes, false)
	b.journal("persist", id)
}

// issuePromotions creates scenario-2(c) promotion offers for active
// controlled-load sessions that opted in and run below their best quality.
// Each shard's candidates are offered against that shard's own headroom.
func (b *Broker) issuePromotions() {
	type cand struct {
		id   sla.ID
		doc  *sla.Document
		best resource.Capacity
	}
	for _, sh := range b.shards {
		sh.mu.Lock()
		var cands []cand
		for id, s := range sh.sessions {
			if s.doc.State != sla.StateActive && s.doc.State != sla.StateEstablished {
				continue
			}
			if !s.doc.Adapt.PromotionOffers {
				continue
			}
			if _, open := sh.promotions[id]; open {
				continue
			}
			best := s.doc.Spec.Best()
			if best.Sub(s.doc.Allocated).ClampMin(resource.Capacity{}).IsZero() {
				continue
			}
			cands = append(cands, cand{id: id, doc: s.doc.Clone(), best: best})
		}
		sh.mu.Unlock()
		sort.Slice(cands, func(i, j int) bool { return cands[i].id < cands[j].id })

		for _, c := range cands {
			// Offer only what currently fits on the session's shard.
			headroom := sh.alloc.AvailableGuaranteed()
			target := c.doc.Spec.Clamp(c.doc.Allocated.Add(headroom).Min(c.best))
			if target.Sub(c.doc.Allocated).ClampMin(resource.Capacity{}).IsZero() {
				continue
			}
			offer, ok := b.prices.Promotion(c.doc, target, b.clock.Now().Add(b.cfg.ConfirmWindow))
			if !ok {
				continue
			}
			sh.mu.Lock()
			sh.promotions[c.id] = offer
			b.logf("promotion", c.id, "offered upgrade %v -> %v at %.2f (list %.2f)",
				offer.From, offer.To, offer.OfferPrice, offer.ListPrice)
			sh.mu.Unlock()
		}
	}
}

// Promotions returns the open promotion offers, ordered by SLA ID.
func (b *Broker) Promotions() []pricing.PromotionOffer {
	var out []pricing.PromotionOffer
	for _, sh := range b.shards {
		sh.mu.Lock()
		for _, o := range sh.promotions {
			out = append(out, o)
		}
		sh.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].SLA < out[j].SLA })
	return out
}

// AcceptPromotion applies an open promotion offer: the session is upgraded
// and the discounted increment charged.
func (b *Broker) AcceptPromotion(id sla.ID) error {
	defer b.debugCheck("promotion")
	sh := b.shardFor(id)
	if sh == nil {
		return fmt.Errorf("%w: no open promotion for %s", ErrUnknownSession, id)
	}
	sh.mu.Lock()
	offer, ok := sh.promotions[id]
	delete(sh.promotions, id) // accepted, expired or refused: the offer is spent
	sh.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: no open promotion for %s", ErrUnknownSession, id)
	}
	if b.clock.Now().After(offer.Expires) {
		return fmt.Errorf("%w: promotion for %s expired", ErrBadState, id)
	}

	// Capacity may have changed since the offer: a shortfall refuses the
	// upgrade and walks the allocator back.
	if _, err := b.reallocate(sh, id, move{
		target: offer.To, short: refuseShort, offer: offer.OfferPrice, notes: [2]string{"promotion accepted"}, rebase: true,
		event: "promotion", msg: "accepted: upgraded to %[2]v for %.2[3]f",
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
	// Applied reports whether the reallocation was pushed to the
	// resource managers (Gain ≥ MinOptimizerGain).
	Applied bool
	// Changed counts sessions whose allocation changed.
	Changed int
}

// RunOptimizer executes the §5.3 heuristic over active controlled-load
// sessions: "the optimization heuristic is executed periodically by the
// AQoS broker; if there is a considerable gain in terms of benefits to the
// Grid Service provider, resources allocation is accordingly modified."
// Each shard's sessions form an independent optimization problem over that
// shard's capacity; the outcome aggregates all shards (for the default
// single-shard broker this is exactly the classic whole-domain pass).
func (b *Broker) RunOptimizer() (OptimizeOutcome, error) {
	defer b.debugCheck("optimize")
	b.met.optimizerRuns.Inc()
	var out OptimizeOutcome
	for _, sh := range b.shards {
		shardOut, err := b.optimizeShard(sh)
		if err != nil {
			return out, err
		}
		out.Considered += shardOut.Considered
		out.Gain += shardOut.Gain
		out.Changed += shardOut.Changed
	}
	out.Applied = out.Changed > 0
	if out.Applied {
		b.met.optimizerApplied.Inc()
		b.logf("optimize", "", "reallocated %d/%d controlled-load sessions, profit gain %.2f",
			out.Changed, out.Considered, out.Gain)
	}
	return out, nil
}

// optimizeShard runs one shard's §5.3 problem: its live controlled-load
// sessions compete for what they hold plus the shard's headroom. The gain
// threshold applies per shard — each shard's reallocation must clear
// MinOptimizerGain on its own.
func (b *Broker) optimizeShard(sh *shard) (OptimizeOutcome, error) {
	type entry struct {
		id    sla.ID
		spec  sla.Spec
		alloc resource.Capacity
	}
	sh.mu.Lock()
	var entries []entry
	for id, s := range sh.sessions {
		if s.doc.Class != sla.ClassControlledLoad {
			continue
		}
		if s.doc.State != sla.StateActive && s.doc.State != sla.StateEstablished {
			continue
		}
		if s.degraded {
			continue // scenario-3/1 victims are restored explicitly
		}
		entries = append(entries, entry{id: id, spec: s.doc.Spec.Clone(), alloc: s.doc.Allocated})
	}
	sh.mu.Unlock()
	sort.Slice(entries, func(i, j int) bool { return entries[i].id < entries[j].id })

	out := OptimizeOutcome{Considered: len(entries)}
	if len(entries) == 0 {
		return out, nil
	}

	// Capacity available to these sessions: what they hold now plus the
	// shard's guaranteed-side headroom.
	capacity := sh.alloc.AvailableGuaranteed()
	currentProfit := 0.0
	rates := b.prices.ClassRates(sla.ClassControlledLoad)
	problem := OptProblem{Services: make([]OptService, 0, len(entries))}
	for _, e := range entries {
		capacity = capacity.Add(e.alloc)
		currentProfit += rates.Cost(e.alloc)
		problem.Services = append(problem.Services, OptService{ID: e.id, Spec: e.spec, Rates: rates})
	}
	problem.Capacity = capacity

	res, err := Greedy(problem)
	if err != nil {
		return out, err
	}
	out.Gain = res.Profit - currentProfit
	if out.Gain < b.cfg.MinOptimizerGain {
		return out, nil
	}

	// The assignment fits the pool jointly, but it is applied one
	// session at a time: an upgrade applied before the downsizes that
	// fund it transiently over-demands the pool and collapses to a
	// floor grant. Downsizes first keeps every intermediate state
	// within capacity (stable sort preserves the id order within each
	// half, so the pass stays deterministic).
	sort.SliceStable(entries, func(i, j int) bool {
		di := res.Assignment[entries[i].id].FitsIn(entries[i].alloc)
		dj := res.Assignment[entries[j].id].FitsIn(entries[j].alloc)
		return di && !dj
	})
	for _, e := range entries {
		target := res.Assignment[e.id]
		if target.Equal(e.alloc) {
			continue
		}
		r, err := b.reallocate(sh, e.id, move{target: target, notes: qualityNotes, rebase: true})
		if r.short {
			// The pool moved between solve and apply (a concurrent
			// admission took the headroom): only the floor was granted.
			b.logf("optimize", e.id, "partial grant %v for target %v, document follows", r.applied, target)
		}
		if err != nil {
			continue // skip this session; others may still improve
		}
		b.journal("optimize", e.id)
		if !r.applied.Equal(e.alloc) {
			out.Changed++
		}
	}
	out.Applied = out.Changed > 0
	return out, nil
}

func bindParamFor(job gram.Job) gara.BindParam {
	return gara.BindParam{PID: job.PID}
}
