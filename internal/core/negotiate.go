package core

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"gqosm/internal/gara"
	"gqosm/internal/registry"
	"gqosm/internal/resource"
	"gqosm/internal/sla"
)

// Request is a client's service request with QoS requirements (the
// service_request of Fig. 7): "a client contacts the AQoS broker with its
// service information and QoS requirements, such as reservation time and
// budget constraints" (§2.1).
type Request struct {
	Service string
	Client  string
	Class   sla.Class
	Spec    sla.Spec
	// Start and End bound the reservation.
	Start, End time.Time
	// Budget caps the session price; 0 means unconstrained.
	Budget float64
	// AcceptDegradation / AcceptTermination / PromotionOptIn are the
	// adaptation options the client is willing to record in the SLA
	// (§5.2).
	AcceptDegradation bool
	AcceptTermination bool
	PromotionOptIn    bool
	// Penalty records the SLA-violation penalty terms (§5.2 lists "SLA
	// violation penalties" among the agreed terms); zero means no
	// penalty clause.
	Penalty sla.Penalty
	// ShardHint pins placement to a shard (1-based index; 0 lets the
	// placement layer pick the least-loaded shard). The fallback chain
	// across the remaining shards still applies on capacity errors.
	// Ignored by single-shard brokers.
	ShardHint int
}

// Validate checks the request.
func (r Request) Validate() error {
	if r.Service == "" {
		return fmt.Errorf("core: request needs a service name")
	}
	if r.Class != sla.ClassGuaranteed && r.Class != sla.ClassControlledLoad {
		return fmt.Errorf("core: negotiated requests must be guaranteed or controlled-load, got %v", r.Class)
	}
	if len(r.Spec.Params) == 0 {
		return fmt.Errorf("core: request needs QoS parameters")
	}
	if err := r.Spec.Validate(); err != nil {
		return err
	}
	if !r.End.After(r.Start) {
		return fmt.Errorf("core: end %v not after start %v", r.End, r.Start)
	}
	if r.PromotionOptIn && r.Class != sla.ClassControlledLoad {
		return fmt.Errorf("core: promotion offers require the controlled-load class")
	}
	return nil
}

// Offer is the broker's response to a request: a proposed SLA with
// temporarily reserved resources, valid until Expires (§3.1: "resources
// are temporarily reserved during the discovery phase until the client and
// the AQoS conclude a SLA").
type Offer struct {
	SLA     *sla.Document
	Price   float64
	Expires time.Time
	// ServiceKey is the discovered registry entry backing the offer.
	ServiceKey registry.Key
	// Compensated reports that scenario-1 adaptation (degrading willing
	// SLAs) was needed to make room.
	Compensated bool
}

// admission is one request moving through the pipeline: prepare fills
// the first block, admit the second, and the outcome lands on the
// embedded ticket (whose done channel exists only for queued admissions).
// Until resolve settles the ticket, its offer / err fields are the
// pipeline's working state: the offer as installed, the latest refusal.
type admission struct {
	IntakeTicket
	req   Request
	floor resource.Capacity
	key   registry.Key
	// order is the placement chain computed at prepare time; order[at] is
	// the shard the admission is queued or being admitted on, the shards
	// after it are the cross-shard fallbacks.
	order []*shard
	at    int

	id          sla.ID
	quality     resource.Capacity
	price       float64
	grant       GrantResult
	handle      gara.Handle
	compensated bool
}

// RequestService runs the discovery and negotiation phases: find matching
// services, verify resource availability (adapting active sessions if
// necessary — scenario 1), temporarily reserve, and return a priced offer.
// It is prepare + admit of a batch of one: inline on the caller's
// goroutine when no intake queue is configured; with one, the admission
// is enqueued and the caller either rides a flush already running or
// becomes the group-commit leader and drains everything queued behind it
// (a full queue refuses with ErrIntakeFull).
func (b *Broker) RequestService(req Request) (*Offer, error) {
	m, err := b.prepare(req)
	if err != nil {
		return nil, err
	}
	if b.intake == nil {
		b.admit(m.order[0], []*admission{m})
		return m.offer, m.err
	}
	if _, err := b.intake.enqueue(m); err != nil {
		return nil, err
	}
	if !m.Resolved() {
		b.intake.flushShard(m.order[0].index)
	}
	return m.Wait()
}

// refused counts a failed admission and hands err back.
func (b *Broker) refused(err error) error {
	b.met.requestErrors.Inc()
	return err
}

// resolve settles m's ticket — with err, or with the offer commit
// installed when err is nil — and records the per-admission telemetry.
func (b *Broker) resolve(m *admission, err error) {
	if m.err = err; err != nil {
		m.offer = nil
		b.met.requestErrors.Inc()
	} else {
		b.met.requests.Inc()
	}
	if m.done != nil {
		close(m.done)
	}
}

// prepare is the per-request front half of the pipeline: validation, the
// closed / recovering gates, discovery and shard placement. Its failures
// are immediate on every route — nothing is queued, no SLA ID is issued.
func (b *Broker) prepare(req Request) (*admission, error) {
	if err := req.Validate(); err != nil {
		return nil, b.refused(err)
	}
	if b.closed.Load() {
		return nil, b.refused(ErrClosed)
	}
	if b.recovering.Load() {
		// Mid-Recover the session table and allocators are still being
		// installed; refuse with the transient gate so federated callers
		// retry or re-route instead of treating this broker as dead.
		return nil, b.refused(ErrPeerUnavailable)
	}
	// The floor is read by discovery, placement and admission; compute it
	// once here instead of re-deriving it from the spec at every layer.
	floor := req.Spec.Floor()
	if b.intake == nil {
		// Queued admissions are announced by their flush's activity-log
		// line; a per-request render is one of the costs the queue
		// amortizes.
		b.logf("discovery", "", "client %q requests %q class=%s spec floor %v",
			req.Client, req.Service, req.Class, floor)
	}
	key, err := b.discover(req, floor)
	if err != nil {
		return nil, b.refused(err)
	}
	// Placement: shards least-loaded first (honoring any hint) against the
	// published load views. admit commits on the first and falls back
	// across the rest on capacity refusals — the intra-domain mirror of
	// the federation's capacity-error forwarding.
	return &admission{req: req, floor: floor, key: key,
		order: b.placementOrder(req.ShardHint, floor)}, nil
}

// admit runs the negotiation phase for a batch of prepared admissions
// placed on sh and resolves every member. It is the pipeline's one entry:
// the invariant debug hook fires once per call, and the wall-clock
// admission latency (time.Now, not b.clock: the injected clock measures
// simulated time, the histogram how long the broker actually works) is
// observed as each member's amortized share.
func (b *Broker) admit(sh *shard, batch []*admission) {
	defer b.debugCheck("admit")
	started := time.Now()
	b.admitOn(sh, batch)
	per := (time.Since(started) / time.Duration(len(batch))).Seconds()
	for range batch {
		b.met.admitSeconds.Observe(per)
	}
}

// admitOn is the staged negotiation phase against one shard: price +
// budget, ONE allocator pass, GARA reservation, install and ONE journal
// append for the members it grants (commit), then — after those are
// installed — scenario-1 compensation and the cross-shard fallback for
// the members it refuses. Each member is individually atomic: it installs
// completely or is rolled back completely and its ticket fails.
func (b *Broker) admitOn(sh *shard, batch []*admission) {
	if b.closed.Load() {
		for _, m := range batch {
			b.resolve(m, ErrClosed)
		}
		return
	}

	// Stage 1 — price and identify. Budget refusals are final (no other
	// shard would decide differently) and never burn an SLA ID; the ID is
	// issued once, by the first shard that needs it, so ID sequences do
	// not depend on shard count or batch size.
	priced := batch[:0]      // filtered in place: every caller hands its slice over
	var one [1]GuaranteedAsk // a batch of one keeps its ask off the heap
	asks := one[:0]
	if len(batch) > 1 {
		asks = make([]GuaranteedAsk, 0, len(batch))
	}
	for _, m := range batch {
		if err := b.quote(sh, m); err != nil {
			b.resolve(m, err)
			continue
		}
		if m.id == "" {
			m.id = b.newSLAID()
		}
		priced = append(priced, m)
		asks = append(asks, GuaranteedAsk{User: string(m.id), Requested: m.quality, Floor: m.floor})
	}
	if len(priced) == 0 {
		return
	}

	// Stage 2 — one Algorithm-1 pass for the whole batch: one allocator
	// critical section, one rebalance, one view publication.
	sh.alloc.AllocateGuaranteedBatch(asks)
	var refused []*admission
	granted := priced[:0]
	for i, m := range priced {
		if m.err = asks[i].Err; m.err != nil {
			refused = append(refused, m)
			continue
		}
		m.grant = asks[i].Grant
		granted = append(granted, m)
	}
	b.commit(sh, granted)

	// Refused members, in batch order, after the granted ones installed.
	for _, m := range refused {
		switch {
		case !errors.Is(m.err, ErrCannotHonor):
			b.resolve(m, m.err)
		case len(asks) > 1:
			// The book moved under the batch (later grants, rolled-back
			// reservations): re-price and re-ask alone before adapting
			// anyone.
			b.admitOn(sh, []*admission{m})
		default:
			b.compensateOrForward(sh, m)
		}
	}
}

// quote chooses m's proposed quality on sh and prices it: guaranteed gets
// the exact request; controlled-load gets the best level the shard's
// published headroom carries (an advisory view — the allocator
// re-validates under its lock), never below the floor, in which case
// admission relies on scenario-1 compensation. A price over budget
// degrades controlled-load toward the floor and refuses otherwise.
func (b *Broker) quote(sh *shard, m *admission) error {
	req := &m.req
	quality := req.Spec.Best()
	if req.Class == sla.ClassControlledLoad {
		quality = req.Spec.Clamp(quality.Min(sh.alloc.AvailableGuaranteed())).Max(m.floor)
	}
	price := b.prices.Cost(req.Class, quality)
	if req.Budget > 0 && price > req.Budget {
		if req.Class == sla.ClassGuaranteed {
			return fmt.Errorf("%w: price %.2f > budget %.2f", ErrOverBudget, price, req.Budget)
		}
		quality = m.floor
		price = b.prices.Cost(req.Class, quality)
		if price > req.Budget {
			return fmt.Errorf("%w: floor price %.2f > budget %.2f", ErrOverBudget, price, req.Budget)
		}
	}
	m.quality, m.price = quality, price
	return nil
}

// compensateOrForward handles a lone member sh refused for capacity:
// scenario-1 compensation on sh's own sessions and one retry, then the
// next shard of its placement chain, then the refusal.
func (b *Broker) compensateOrForward(sh *shard, m *admission) {
	err := m.err
	freed, cerr := b.compensate(sh, m.floor)
	if cerr != nil {
		err = fmt.Errorf("request %s: %w (compensation: %v)", m.id, err, cerr)
	} else if m.grant, err = sh.alloc.AllocateGuaranteed(string(m.id), m.quality, m.floor); err != nil {
		err = fmt.Errorf("request %s after compensation: %w", m.id, err)
	} else {
		m.compensated = freed
		b.commit(sh, []*admission{m})
		return
	}
	if m.at++; m.at < len(m.order) {
		b.admitOn(m.order[m.at], []*admission{m})
		return
	}
	if len(b.shards) > 1 {
		err = fmt.Errorf("core: %d shard(s) tried, none can honor: %w", len(m.order), err)
	}
	b.resolve(m, err)
}

// commit is the back half of the pipeline for members holding an
// allocator grant on sh: per-member GARA reservation with rollback, one
// route-lock and one shard-lock install pass with per-session confirm
// timers, one journal append (one fsync) carrying a per-session record
// each, then ticket resolution.
func (b *Broker) commit(sh *shard, granted []*admission) {
	// Mechanism: temporary GARA reservations. A reservation failure is
	// final for that member only.
	reserved := granted[:0]
	for _, m := range granted {
		if !m.grant.Shortfall.IsZero() {
			// Only the floor was granted; reprice at what is delivered.
			m.quality = m.grant.Granted
			m.price = b.prices.Cost(m.req.Class, m.quality)
		}
		handle, err := b.reserve(sh, m.id, reservationRSL(m.req.Spec, m.grant.Granted), m.req.Start, m.req.End)
		if err != nil {
			b.resolve(m, fmt.Errorf("core: reservation: %w", err))
			continue
		}
		m.handle = handle
		reserved = append(reserved, m)
	}
	if len(reserved) == 0 {
		return
	}

	var one [1]sla.ID // as in admitOn: no heap slice for a batch of one
	ids := one[:0]
	if len(reserved) > 1 {
		ids = make([]sla.ID, 0, len(reserved))
	}
	for _, m := range reserved {
		ids = append(ids, m.id)
	}
	now := b.clock.Now()
	expires := now.Add(b.cfg.ConfirmWindow)
	err := b.install(sh, ids, func(i int) gara.Handle { return reserved[i].handle }, func() {
		b.proposeLocked(sh, reserved, now, expires)
	})
	if err != nil {
		for _, m := range reserved {
			b.resolve(m, err)
		}
		return
	}

	// Proposal is the one lifecycle step that never reaches persist —
	// journal it explicitly: the proposed sessions hold allocator grants
	// and GARA reservations that recovery must account for.
	b.journalBatch("propose", sh, ids)
	for _, m := range reserved {
		b.resolve(m, nil)
	}
}

// reserve creates the GARA reservation behind id's grant on sh,
// idempotently: a retry after a lost reply adopts the reservation already
// committed under the SLA's tag instead of double-committing it. On failure
// the grant is released and the rollback journaled before the error comes
// back.
func (b *Broker) reserve(sh *shard, id sla.ID, spec string, start, end time.Time) (gara.Handle, error) {
	tag := string(id)
	handle, err := b.pol.callCreate("gara.create", tag, func() (gara.Handle, error) {
		return b.cfg.GARA.Create(spec, start, end, tag)
	})
	if err != nil {
		_ = sh.alloc.ReleaseGuaranteed(tag)
		// A timed-out or partially-failed attempt may still have
		// committed the reservation; park it so the reconciliation
		// sweep cancels it rather than leaking it.
		if h, ok := b.cfg.GARA.FindByTag(tag); ok {
			b.parkCancel(id, h)
		}
		// The failed admission may have preempted best-effort grants;
		// journal the shard's post-rollback aux or replay resurrects them.
		b.journalShardAux("rollback", sh)
	}
	return handle, err
}

// install routes ids to sh and runs put — which registers their sessions —
// under the shard lock. The routes go in before the sessions: a confirm
// timer's expiry callback resolves its shard through them. If the broker
// shut down while the sessions were negotiating, nothing is registered:
// the routes, the grants and the reservations (handle(i) is ids[i]'s) are
// walked back rather than leaked into a closed broker, and ErrClosed
// returned.
func (b *Broker) install(sh *shard, ids []sla.ID, handle func(i int) gara.Handle, put func()) error {
	b.routeMu.Lock()
	for _, id := range ids {
		b.route[id] = sh
	}
	b.routeMu.Unlock()

	sh.mu.Lock()
	if !b.closed.Load() {
		put()
		sh.mu.Unlock()
		return nil
	}
	sh.mu.Unlock()
	b.routeMu.Lock()
	for _, id := range ids {
		delete(b.route, id)
	}
	b.routeMu.Unlock()
	for i, id := range ids {
		_ = sh.alloc.ReleaseGuaranteed(string(id))
		_ = b.cfg.GARA.Cancel(handle(i))
	}
	b.journalShardAux("rollback", sh)
	return ErrClosed
}

// proposeLocked registers the batch's sessions as Proposed, arms their
// confirm timers and snapshots their offers. The caller holds sh.mu.
func (b *Broker) proposeLocked(sh *shard, reserved []*admission, now, expires time.Time) {
	for _, m := range reserved {
		id, allocated := m.id, m.grant.Granted
		doc := &sla.Document{
			ID:       id,
			Service:  m.req.Service,
			Client:   m.req.Client,
			Provider: b.cfg.Domain,
			Class:    m.req.Class,
			Spec:     m.req.Spec.Clone(),
			Adapt: sla.AdaptationOptions{
				AcceptDegradation: m.req.AcceptDegradation,
				AcceptTermination: m.req.AcceptTermination,
				PromotionOffers:   m.req.PromotionOptIn,
				AlternativeQoS:    m.floor,
				HasAlternative:    m.req.AcceptDegradation || m.req.Class == sla.ClassControlledLoad,
			},
			Penalty:   m.req.Penalty,
			Start:     m.req.Start,
			End:       m.req.End,
			Price:     m.price,
			Allocated: allocated,
			State:     sla.StateProposed,
		}
		sess := &session{doc: doc, handle: m.handle, original: allocated, proposedAt: now}
		sh.sessions[id] = sess
		// Schedule the auto-cancel only after the session is registered: the
		// clock may fire the callback the instant it is armed (a concurrent
		// Advance past the window), and an expiry that finds no session would
		// silently leave the offer un-expirable. Timer scheduling never fires
		// callbacks synchronously under the clock's lock, so arming it under
		// sh.mu cannot deadlock.
		sess.confirm = b.clock.AfterFunc(b.cfg.ConfirmWindow, func() {
			b.expireOffer(id)
		})
		// Snapshot the offer document before releasing the lock: once the
		// confirm timer is armed, a concurrent clock advance can expire the
		// offer and mutate doc at any moment.
		m.offer = &Offer{
			SLA:         doc.Clone(),
			Price:       m.price,
			Expires:     expires,
			ServiceKey:  m.key,
			Compensated: m.compensated,
		}
	}
	if m := reserved[0]; len(reserved) == 1 {
		b.logf("offer", m.id, "proposed %v at price %.2f (expires %s)",
			m.grant.Granted, m.price, expires.Format("15:04:05"))
	} else {
		b.logf("offer", "", "group-commit: %d offer(s) proposed in one batch (shard %d)",
			len(reserved), sh.index)
	}
}

// discover queries the registry for services matching the request's name
// and QoS floor (the UDDIe property search of §2.1). With no registry
// configured the request is accepted as-is. When the discovery cache is
// live a repeated (service, floor) query is answered from it — skipping
// the registry Find and the per-request Query rebuild (including the
// trimFloat rendering of every filter value) entirely; errors and empty
// result sets always fall through, so they behave identically on the
// cached and uncached paths.
func (b *Broker) discover(req Request, floor resource.Capacity) (registry.Key, error) {
	if b.cfg.Registry == nil {
		return "", nil
	}
	dk := discoveryKeyFor(req.Service, floor)
	var (
		q          registry.Query
		epoch, gen uint64
	)
	if b.dcache != nil {
		if key, ok := b.dcache.lookup(dk, b.clock.Now()); ok {
			return key, nil
		}
		// Miss: reuse the prebuilt query of any stale entry, and read the
		// epoch+generation stamp before the Find (see discoveryCache.stamp).
		q = b.dcache.queryFor(dk)
		epoch, gen = b.dcache.stamp()
	} else {
		q = buildDiscoveryQuery(dk)
	}
	matches, err := b.cfg.Registry.Find(q)
	if err != nil {
		return "", fmt.Errorf("core: discovery: %w", err)
	}
	if len(matches) == 0 {
		return "", fmt.Errorf("%w: %q with %v", ErrNoService, req.Service, floor)
	}
	if b.dcache != nil {
		b.dcache.store(dk, &discoveryEntry{
			query:      q,
			key:        matches[0].Key,
			name:       matches[0].Name,
			leaseUntil: matches[0].LeaseUntil,
			gen:        gen,
			epoch:      epoch,
		})
	}
	b.logf("discovery", "", "registry returned %d matching service(s); selected %q",
		len(matches), matches[0].Name)
	return matches[0].Key, nil
}

// ladderTarget is one rung of a scenario-1 compensation ladder: a session
// willing to be degraded (or terminated), and its current revenue.
type ladderTarget struct {
	id    sla.ID
	price float64
}

// cheapestFirst sorts a ladder into the order victims are taken: cheapest
// session first, by (price, id), minimizing provider impact.
func cheapestFirst(ts []ladderTarget) {
	sort.Slice(ts, func(i, j int) bool {
		if ts[i].price != ts[j].price {
			return ts[i].price < ts[j].price
		}
		return ts[i].id < ts[j].id
	})
}

// compensate implements scenario 1: "adaptation can be used to free
// resources to accommodate the new request by adjusting resource
// allocations of active services while still satisfying their SLAs. …
// The list is filtered to include only those services whose SLAs indicate
// willingness to accept a degraded QoS and/or termination of service."
// It degrades willing active sessions to their floors, then (if still
// needed) terminates willing-to-terminate sessions, cheapest first. It
// reports whether anything was freed. Compensation is shard-local: only
// sessions admitted on sh can return capacity to sh's partition.
func (b *Broker) compensate(sh *shard, needed resource.Capacity) (bool, error) {
	sh.mu.Lock()
	// Snapshot everything the ladder ordering reads while sh.mu is held:
	// the documents stay owned by the shard and may be mutated (price,
	// state) by concurrent lifecycle calls once the lock is released.
	var degradable, terminable []ladderTarget
	for id, s := range sh.sessions {
		if s.doc.State != sla.StateActive && s.doc.State != sla.StateEstablished {
			continue
		}
		floor := s.doc.Spec.Floor()
		if s.doc.Adapt.AcceptDegradation && !s.doc.Allocated.Sub(floor).ClampMin(resource.Capacity{}).IsZero() {
			degradable = append(degradable, ladderTarget{id: id, price: s.doc.Price})
		}
		if s.doc.Adapt.AcceptTermination {
			terminable = append(terminable, ladderTarget{id: id, price: s.doc.Price})
		}
	}
	sh.mu.Unlock()

	if len(degradable) == 0 && len(terminable) == 0 {
		return false, fmt.Errorf("core: no active SLA accepts degradation or termination")
	}

	cheapestFirst(degradable)
	cheapestFirst(terminable)

	freed := false
	for _, t := range degradable {
		if needed.FitsIn(sh.alloc.AvailableGuaranteed()) {
			break
		}
		if err := b.degradeToFloor(sh, t.id); err == nil {
			freed = true
		}
	}
	for _, t := range terminable {
		if needed.FitsIn(sh.alloc.AvailableGuaranteed()) {
			break
		}
		// Tear down without the scenario-2 hook: running it here would
		// restore the volunteers degraded above and hand the freed
		// capacity straight back.
		if err := b.terminateForCompensation(t.id); err == nil {
			freed = true
		}
	}
	if freed {
		b.met.compensations.Inc()
	}
	if !needed.FitsIn(sh.alloc.AvailableGuaranteed()) {
		return freed, fmt.Errorf("core: compensation freed insufficient capacity for %v", needed)
	}
	return freed, nil
}

// degradeToFloor shrinks a live session of sh to its SLA floor (still
// satisfying the SLA) and records it as degraded.
func (b *Broker) degradeToFloor(sh *shard, id sla.ID) error {
	_, err := b.reallocate(sh, id, move{
		toFloor: true, notes: qualityNotes, mark: markDegraded,
		event: "adapt", msg: "degraded to floor %[2]v (scenario 1 compensation)",
		count: b.met.degraded, // scenario 1
	})
	return err
}

// Accept confirms a proposed offer: the SLA is established, the temporary
// reservation committed, and the client charged.
func (b *Broker) Accept(id sla.ID) error {
	defer b.debugCheck("accept")
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
	if state := s.doc.State; state != sla.StateProposed {
		sh.mu.Unlock()
		return fmt.Errorf("%w: %s is %s", ErrBadState, id, state)
	}
	if s.confirm != nil {
		s.confirm.Stop()
		s.confirm = nil
	}
	if err := s.doc.Transition(sla.StateEstablished); err != nil {
		sh.mu.Unlock()
		return err
	}
	price := s.doc.Price
	b.logf("sla", id, "established; resources committed; charged %.2f", price)
	sh.mu.Unlock()

	b.met.accepted.Inc()
	b.ledger.Charge(id, price, b.clock.Now(), "session charge")
	b.journal("persist", id)
	return nil
}

// Reject declines a proposed offer, releasing the temporary reservation.
// The proposed-state check is evaluated atomically with the teardown so a
// concurrent Accept cannot establish the session in between and have it
// torn down anyway.
func (b *Broker) Reject(id sla.ID) error {
	defer b.debugCheck("reject")
	err := b.teardownIf(id, sla.StateTerminated, "offer rejected by client",
		func(s *session) bool { return s.doc.State == sla.StateProposed })
	if err == nil {
		b.met.rejected.Inc()
	}
	return err
}

// expireOffer is the §3.1 auto-cancel: "if the RS does not receive such
// confirmation within the pre-defined period of time, it instructs GARA to
// cancel the reservation." Gated on the proposed state atomically with the
// teardown: an Accept racing the confirmation deadline either establishes
// the session (and the expiry is a no-op) or loses cleanly.
func (b *Broker) expireOffer(id sla.ID) {
	err := b.teardownIf(id, sla.StateTerminated,
		"confirmation window elapsed; reservation canceled",
		func(s *session) bool { return s.doc.State == sla.StateProposed })
	if err == nil {
		b.met.expired.Inc()
	}
}

// BestEffortRequest asks for best-effort capacity — no SLA, no
// negotiation: "any suitable resources found are returned to the user"
// (§5.1). The grant is immediate or refused. A client's best-effort
// allocations are pinned to the shard of its first grant so repeated
// grants and the final release balance on one partition; the first grant
// picks a shard in placement order, falling back on ErrBestEffortFull.
func (b *Broker) BestEffortRequest(client string, amount resource.Capacity) error {
	defer b.debugCheck("best-effort")
	if b.closed.Load() {
		return ErrClosed
	}
	b.beMu.Lock()
	if sh, pinned := b.beRoute[client]; pinned {
		if err := sh.alloc.AllocateBestEffort(client, amount); err != nil {
			b.beMu.Unlock()
			b.logf("best-effort", "", "denied %v to %q: %v", amount, client, err)
			return err
		}
		b.journalBELocked("be-grant", sh)
		b.beMu.Unlock()
		b.maybeSnapshot()
		b.logf("best-effort", "", "granted %v to %q", amount, client)
		return nil
	}
	var lastErr error
	for _, sh := range b.placementOrder(0, resource.Capacity{}) {
		err := sh.alloc.AllocateBestEffort(client, amount)
		if err == nil {
			b.beRoute[client] = sh
			b.journalBELocked("be-grant", sh)
			b.beMu.Unlock()
			b.maybeSnapshot()
			b.logf("best-effort", "", "granted %v to %q", amount, client)
			return nil
		}
		lastErr = err
		if !errors.Is(err, ErrBestEffortFull) {
			break
		}
	}
	b.beMu.Unlock()
	b.logf("best-effort", "", "denied %v to %q: %v", amount, client, lastErr)
	return lastErr
}

// BestEffortRelease returns a best-effort client's capacity.
func (b *Broker) BestEffortRelease(client string) error {
	defer b.debugCheck("best-effort-release")
	b.beMu.Lock()
	sh, pinned := b.beRoute[client]
	if !pinned {
		sh = b.shards[0]
	}
	err := sh.alloc.ReleaseBestEffort(client)
	if err == nil || errors.Is(err, ErrUnknownUser) {
		// An evicted borrower's pin is stale; drop it either way.
		delete(b.beRoute, client)
		b.journalBELocked("be-release", sh)
	}
	b.beMu.Unlock()
	b.maybeSnapshot()
	if err != nil {
		return err
	}
	b.logf("best-effort", "", "released all capacity of %q", client)
	b.afterRelease()
	return nil
}

func (b *Broker) newSLAID() sla.ID {
	return sla.ID(fmt.Sprintf("%s-sla-%04d",
		strings.ToLower(nonEmpty(b.cfg.Domain, "aqos")), b.nextID.Add(1)))
}

// reservationRSL renders the GARA request for a spec at the allocated
// capacity: a compute part for CPU/memory/disk and a network part for
// bandwidth, combined into a multirequest when both are present.
//
// The string is a pure function of (spec shape, allocation) — the
// session's idempotency tag travels as Create's explicit tag argument,
// never inside the RSL. That keeps identical asks rendering identical
// strings, so rsl.ParseCached hits on every repeat admission instead of
// parsing a unique string per session.
func reservationRSL(spec sla.Spec, alloc resource.Capacity) string {
	_, hasCPU := spec.Params[resource.CPU]
	_, hasMem := spec.Params[resource.MemoryMB]
	_, hasDisk := spec.Params[resource.DiskGB]
	compute := hasCPU || hasMem || hasDisk
	_, network := spec.Params[resource.BandwidthMbps]
	if !compute && !network {
		return "+" // empty multirequest; specs are validated before this
	}
	multi := compute && network

	// One preallocated buffer, appended in place: this renders on every
	// admission, renegotiation, and compensation, so it must not pay for
	// fmt's reflection or intermediate part strings.
	buf := make([]byte, 0, 160)
	if multi {
		buf = append(buf, '+', '(')
	}
	if compute {
		buf = append(buf, `&(reservation-type="compute")`...)
		if hasCPU {
			buf = append(buf, "(count="...)
			buf = strconv.AppendFloat(buf, alloc.CPU, 'f', -1, 64)
			buf = append(buf, ')')
		}
		if hasMem {
			buf = append(buf, "(memory="...)
			buf = strconv.AppendFloat(buf, alloc.MemoryMB, 'f', -1, 64)
			buf = append(buf, ')')
		}
		if hasDisk {
			buf = append(buf, "(disk="...)
			buf = strconv.AppendFloat(buf, alloc.DiskGB, 'f', -1, 64)
			buf = append(buf, ')')
		}
		if multi {
			buf = append(buf, ')', '(')
		}
	}
	if network {
		buf = append(buf, `&(reservation-type="network")(source-ip=`...)
		buf = strconv.AppendQuote(buf, spec.SourceIP)
		buf = append(buf, ")(dest-ip="...)
		buf = strconv.AppendQuote(buf, spec.DestIP)
		buf = append(buf, ")(bandwidth="...)
		buf = strconv.AppendFloat(buf, alloc.BandwidthMbps, 'f', -1, 64)
		buf = append(buf, ')')
	}
	if multi {
		buf = append(buf, ')')
	}
	return string(buf)
}

func nonEmpty(s, def string) string {
	if s == "" {
		return def
	}
	return s
}

// trimFloat formats a float without trailing zeros for RSL and registry
// filter values.
func trimFloat(f float64) string {
	return strconv.FormatFloat(f, 'f', -1, 64)
}
