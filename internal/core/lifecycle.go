package core

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"gqosm/internal/gara"
	"gqosm/internal/gram"
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
		"/grid/services/"+service, trimFloat(maxFloat(duration, 1)), string(id))
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
	b.logLocked("invoke", id, "service %q launched as %s (pid %d), reservation claimed", service, job.ID, job.PID)
	sh.mu.Unlock()
	b.trace(id, sla.StateEstablished, sla.StateActive, resource.Capacity{}, "service invoked")
	b.persist(id)
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
	released := s.doc.Allocated
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
	b.logLocked("clearing", id, "%s: %s", final, reason)
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
	b.trace(id, prevState, final, released.Scale(-1), reason)
	b.persist(id)
	return nil
}

// allocateLive re-grants allocator capacity for a session only while it is
// still live, atomically with respect to teardown: the liveness check and
// the allocator call happen under the session's shard lock, so a
// concurrent terminal transition (which releases the grant under the same
// lock) can never interleave and leave a terminal session holding
// capacity.
func (b *Broker) allocateLive(id sla.ID, requested, floor resource.Capacity) (GrantResult, error) {
	sh := b.shardFor(id)
	if sh == nil {
		return GrantResult{}, fmt.Errorf("%w: %s", ErrUnknownSession, id)
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	s, ok := sh.sessions[id]
	if !ok || s.doc.State.Terminal() {
		return GrantResult{}, fmt.Errorf("%w: %s", ErrUnknownSession, id)
	}
	return sh.alloc.AllocateGuaranteed(string(id), requested, floor)
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
// capacity allows (scenario 2a and scenario-3 recovery).
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
	prevAlloc := s.doc.Allocated
	prevState := s.doc.State
	floor := s.doc.Spec.Floor()
	handle := s.handle
	spec := s.doc.Spec.Clone()
	sh.mu.Unlock()

	grant, err := b.allocateLive(id, target, floor)
	if err != nil || !grant.Shortfall.IsZero() {
		if err == nil {
			// Partial restoration is possible but we keep the grant we
			// got; stay degraded until full restoration.
			_ = b.applyAllocation(id, handle, spec, grant.Granted, true)
		}
		return fmt.Errorf("core: restore %s: insufficient capacity", id)
	}
	if err := b.applyAllocation(id, handle, spec, target, true); err != nil {
		return err
	}
	sh.mu.Lock()
	s.degraded = false
	if s.doc.State == sla.StateDegraded {
		_ = s.doc.Transition(sla.StateActive)
	}
	newState := s.doc.State
	b.logLocked("adapt", id, "restored to %v (scenario 2a)", target)
	sh.mu.Unlock()
	b.met.restored.Inc()
	b.trace(id, prevState, newState, target.Sub(prevAlloc), "restored (scenario 2a)")
	b.persist(id)
	return nil
}

// applyAllocation pushes a changed allocation to GARA and the document.
// With bill set, the price difference between the old and new quality is
// charged (upgrade) or refunded (degradation) — services are "traded
// against cost" (§1.1), so delivered quality and billing move together.
// Promotion acceptance bills separately at the discounted offer price and
// passes bill=false.
func (b *Broker) applyAllocation(id sla.ID, handle gara.Handle, spec sla.Spec, c resource.Capacity, bill bool) error {
	if err := b.pol.call("gara.modify", func() error {
		return b.cfg.GARA.Modify(handle, reservationRSL(spec, c))
	}); err != nil {
		// The caller already moved the allocator to c; with the modify
		// refused, the document (and billing) will keep the old quality,
		// so the allocator must be walked back too or the books skew.
		b.rollbackAllocation(id, c, bill)
		return fmt.Errorf("core: apply allocation %s: %w", id, err)
	}
	var delta float64
	if sh := b.shardFor(id); sh != nil {
		sh.mu.Lock()
		// A session torn down since the grant was issued keeps its final
		// document: no billing, no allocation rewrite.
		if s, ok := sh.sessions[id]; ok && !s.doc.State.Terminal() {
			if bill {
				delta = b.prices.Cost(s.doc.Class, c) - b.prices.Cost(s.doc.Class, s.doc.Allocated)
				s.doc.Price += delta
			}
			s.doc.Allocated = c
		}
		sh.mu.Unlock()
	}
	switch {
	case delta > 0:
		b.ledger.Charge(id, delta, b.clock.Now(), "quality upgrade")
	case delta < 0:
		b.ledger.Record(pricing.Entry{
			Kind: pricing.EntryRefund, SLA: id, Amount: -delta,
			At: b.clock.Now(), Note: "quality degradation refund",
		})
	}
	b.persist(id)
	return nil
}

// rollbackAllocation undoes the caller's allocateLive after a failed
// GARA modify: the allocator holds c while the document kept the
// previous quality. The documented quality is re-granted; if its
// capacity was snapped up in the meantime (the failed change was a
// degradation and another session took the freed headroom) the
// allocator keeps c and the document is moved to match instead, with
// billing following the delivered quality. Either way document and
// allocator agree again; the reservation spec may be stale until the
// next successful modify or teardown, which is logged, not silent.
func (b *Broker) rollbackAllocation(id sla.ID, c resource.Capacity, bill bool) {
	sh := b.shardFor(id)
	if sh == nil {
		return
	}
	sh.mu.Lock()
	s, ok := sh.sessions[id]
	if !ok || s.doc.State.Terminal() {
		sh.mu.Unlock()
		return
	}
	prev := s.doc.Allocated
	sh.mu.Unlock()
	// floor == requested: the re-grant either fully succeeds or leaves
	// the existing grant (c) untouched — never a partial fallback.
	if _, err := b.allocateLive(id, prev, prev); err == nil {
		// Document and allocator agree again, but the failed grant (and
		// this re-grant) may have preempted best-effort users.
		b.journalShardAux("rollback", sh)
		return
	}
	var delta float64
	sh.mu.Lock()
	if s, ok := sh.sessions[id]; ok && !s.doc.State.Terminal() {
		if bill {
			delta = b.prices.Cost(s.doc.Class, c) - b.prices.Cost(s.doc.Class, s.doc.Allocated)
			s.doc.Price += delta
		}
		s.doc.Allocated = c
		b.logLocked("adapt", id, "failed modify: allocator kept %v, reservation spec stale", c)
	}
	sh.mu.Unlock()
	switch {
	case delta > 0:
		b.ledger.Charge(id, delta, b.clock.Now(), "quality upgrade")
	case delta < 0:
		b.ledger.Record(pricing.Entry{
			Kind: pricing.EntryRefund, SLA: id, Amount: -delta,
			At: b.clock.Now(), Note: "quality degradation refund",
		})
	}
	b.persist(id)
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
			b.logLocked("promotion", c.id, "offered upgrade %v -> %v at %.2f (list %.2f)",
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
	if !ok {
		sh.mu.Unlock()
		return fmt.Errorf("%w: no open promotion for %s", ErrUnknownSession, id)
	}
	if b.clock.Now().After(offer.Expires) {
		delete(sh.promotions, id)
		sh.mu.Unlock()
		return fmt.Errorf("%w: promotion for %s expired", ErrBadState, id)
	}
	s, ok := sh.sessions[id]
	if !ok || s.doc.State.Terminal() {
		delete(sh.promotions, id)
		sh.mu.Unlock()
		return fmt.Errorf("%w: %s", ErrUnknownSession, id)
	}
	floor := s.doc.Spec.Floor()
	handle := s.handle
	spec := s.doc.Spec.Clone()
	delete(sh.promotions, id)
	sh.mu.Unlock()

	grant, err := b.allocateLive(id, offer.To, floor)
	if err != nil {
		return fmt.Errorf("core: promotion %s: %w", id, err)
	}
	if !grant.Shortfall.IsZero() {
		// Capacity changed since the offer; roll back to the previous
		// grant and refuse.
		_, _ = b.allocateLive(id, offer.From, floor)
		b.journalShardAux("rollback", sh)
		return fmt.Errorf("%w: promotion capacity no longer available", ErrBadState)
	}
	if err := b.applyAllocation(id, handle, spec, offer.To, false); err != nil {
		return err
	}
	sh.mu.Lock()
	s.original = offer.To
	s.doc.Price += offer.OfferPrice
	state := s.doc.State
	b.logLocked("promotion", id, "accepted: upgraded to %v for %.2f", offer.To, offer.OfferPrice)
	sh.mu.Unlock()
	b.met.promoted.Inc()
	b.trace(id, state, state, offer.To.Sub(offer.From), "promotion accepted (scenario 2c)")
	b.ledger.Record(pricing.Entry{
		Kind: pricing.EntryPromotion, SLA: id, Amount: offer.OfferPrice,
		At: b.clock.Now(), Note: "promotion accepted",
	})
	b.persist(id)
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
		id     sla.ID
		spec   sla.Spec
		alloc  resource.Capacity
		handle gara.Handle
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
		entries = append(entries, entry{id: id, spec: s.doc.Spec.Clone(), alloc: s.doc.Allocated, handle: s.handle})
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
		problem.Services = append(problem.Services, OptService{
			ID: e.id, Spec: e.spec, Rates: rates, RangeSteps: b.cfg.RangeSteps,
		})
	}
	problem.Capacity = capacity

	res, err := b.policy.Optimize(problem)
	if b.shadowPol != nil {
		// The shadow candidate solves a deep clone: a solver that mutated
		// its problem (specs, service list) must not reach the live copies
		// the apply loop below still reads.
		sres, serr := b.shadowPol.Optimize(problem.Clone())
		b.recordShadow("optimize", !sameAssignment(res, err, sres, serr))
	}
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
		grant, err := b.allocateLive(e.id, target, e.spec.Floor())
		if err != nil {
			continue // skip this session; others may still improve
		}
		applied := target
		if !grant.Shortfall.IsZero() {
			// The pool moved between solve and apply (a concurrent
			// admission took the headroom) and only the floor was
			// granted. AllocateGuaranteed has already replaced the
			// session's grant, so the document must follow it — billing
			// tracks delivered quality, exactly as in restore().
			applied = grant.Granted
			b.logf("optimize", e.id, "partial grant %v for target %v, document follows", applied, target)
		}
		if err := b.applyAllocation(e.id, e.handle, e.spec, applied, true); err != nil {
			continue
		}
		sh.mu.Lock()
		if s, ok := sh.sessions[e.id]; ok {
			s.original = applied
		}
		sh.mu.Unlock()
		// applyAllocation journaled via persist, but s.original changed
		// after that; journal the final state.
		b.journal("optimize", e.id)
		if !applied.Equal(e.alloc) {
			out.Changed++
		}
	}
	out.Applied = out.Changed > 0
	return out, nil
}

// persist writes the session's document to the repository and journals
// the session's post-operation state — every mutating lifecycle path
// funnels through here, so the WAL sees every committed state change.
func (b *Broker) persist(id sla.ID) {
	sh := b.shardFor(id)
	if sh == nil {
		return
	}
	sh.mu.Lock()
	s, ok := sh.sessions[id]
	var doc *sla.Document
	if ok {
		doc = s.doc.Clone()
	}
	sh.mu.Unlock()
	if doc == nil {
		return
	}
	if err := b.repo.Put(doc); err != nil {
		b.logf("repo", id, "persist: %v", err)
	}
	b.journal("persist", id)
}

func bindParamFor(job gram.Job) gara.BindParam {
	return gara.BindParam{PID: job.PID}
}

// entryRefund builds a refund ledger entry.
func entryRefund(id sla.ID, amount float64, b *Broker) pricing.Entry {
	return pricing.Entry{
		Kind: pricing.EntryRefund, SLA: id, Amount: amount,
		At: b.clock.Now(), Note: "renegotiation refund",
	}
}

func maxFloat(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
