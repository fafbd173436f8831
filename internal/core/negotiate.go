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
	"gqosm/internal/rsl"
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
}

// Validate checks the request.
func (r Request) Validate() error {
	if r.Service == "" {
		return fmt.Errorf("%w: no service name", ErrInvalidRequest)
	}
	if r.Class != sla.ClassGuaranteed && r.Class != sla.ClassControlledLoad {
		return fmt.Errorf("%w: negotiated requests must be guaranteed or controlled-load, got %v", ErrInvalidRequest, r.Class)
	}
	if len(r.Spec.Params) == 0 {
		return fmt.Errorf("%w: no QoS parameters", ErrInvalidRequest)
	}
	if err := r.Spec.Validate(); err != nil {
		return fmt.Errorf("%w: %w", ErrInvalidRequest, err)
	}
	if !r.End.After(r.Start) {
		return fmt.Errorf("%w: end %v not after start %v", ErrInvalidRequest, r.End, r.Start)
	}
	if r.PromotionOptIn && r.Class != sla.ClassControlledLoad {
		return fmt.Errorf("%w: promotion offers require the controlled-load class", ErrInvalidRequest)
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
// It is prepare + admit of a batch of one, inline on the caller's
// goroutine when no other admission is running or queued; otherwise the
// admission is enqueued and the caller either rides a flush already
// running or becomes the group-commit leader and drains everything queued
// behind it (a full queue refuses with ErrIntakeFull).
func (b *Broker) RequestService(req Request) (*Offer, error) {
	m, err := b.prepare(req, true)
	if err != nil {
		return nil, err
	}
	if b.intake.admitInline(m) {
		return m.offer, m.err
	}
	if _, err := b.intake.enqueue(m); err != nil {
		return nil, err
	}
	if !m.Resolved() {
		b.intake.flush()
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
// closed / recovering gates and discovery. Its failures are immediate on
// every route — nothing is queued, no SLA ID is issued. announce writes
// the request's activity-log line; Submit leaves it out, a per-request
// render being one of the costs its batches amortize.
func (b *Broker) prepare(req Request, announce bool) (*admission, error) {
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
	// The floor is read by discovery and admission; compute it once here
	// instead of re-deriving it from the spec at every layer.
	floor := req.Spec.Floor()
	if announce {
		var arr [192]byte
		b.logLine("discovery", "", appendRequestLine(arr[:0], req.Client, req.Service, req.Class, floor))
	}
	key, err := b.discover(req, floor)
	if err != nil {
		return nil, b.refused(err)
	}
	return &admission{req: req, floor: floor, key: key}, nil
}

// admit runs the negotiation phase for a batch of prepared admissions and
// resolves every member. It is the pipeline's one entry:
// the invariant debug hook fires once per call, and the admission latency
// on the injected clock (the real clock's monotonic reading under aqosd,
// virtual time under a manual clock) is observed as each member's
// amortized share.
func (b *Broker) admit(batch []*admission) {
	defer b.debugCheck("admit")
	started := b.clock.Now()
	b.negotiate(batch)
	per := (b.clock.Now().Sub(started) / time.Duration(len(batch))).Seconds()
	for range batch {
		b.met.admitSeconds.Observe(per)
	}
}

// negotiate is the staged negotiation phase: price + budget, ONE
// allocator pass, GARA reservation, install and ONE journal append for
// the members it grants (commit), then — after those are installed —
// scenario-1 compensation for the members it refuses. Each member is
// individually atomic: it installs completely or is rolled back
// completely and its ticket fails.
func (b *Broker) negotiate(batch []*admission) {
	if b.closed.Load() {
		for _, m := range batch {
			b.resolve(m, ErrClosed)
		}
		return
	}

	// Stage 1 — price and identify. Budget refusals are final and never
	// burn an SLA ID; the ID is issued once, so ID sequences do not depend
	// on batch size.
	priced := batch[:0]      // filtered in place: every caller hands its slice over
	var one [1]GuaranteedAsk // a batch of one keeps its ask off the heap
	asks := one[:0]
	if len(batch) > 1 {
		asks = make([]GuaranteedAsk, 0, len(batch))
	}
	for _, m := range batch {
		if err := b.quote(m); err != nil {
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
	// critical section, one rebalance.
	b.alloc.AllocateGuaranteedBatch(asks)
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
	b.commit(granted)

	// Refused members, in batch order, after the granted ones installed.
	for _, m := range refused {
		switch {
		case !errors.Is(m.err, ErrCannotHonor):
			b.resolve(m, m.err)
		case len(asks) > 1:
			// The book moved under the batch (later grants, rolled-back
			// reservations): re-price and re-ask alone before adapting
			// anyone.
			b.negotiate([]*admission{m})
		default:
			b.compensateAndRetry(m)
		}
	}
}

// quote chooses m's proposed quality and prices it: guaranteed gets the
// exact request; controlled-load gets the best level the allocator's
// headroom carries (an advisory read — the grant re-validates it under
// the allocator's lock), never below the floor, in which case
// admission relies on scenario-1 compensation. A price over budget
// degrades controlled-load toward the floor and refuses otherwise.
func (b *Broker) quote(m *admission) error {
	req := &m.req
	quality := req.Spec.Best()
	if req.Class == sla.ClassControlledLoad {
		quality = req.Spec.Clamp(quality.Min(b.alloc.AvailableGuaranteed())).Max(m.floor)
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

// compensateAndRetry handles a lone member refused for capacity:
// scenario-1 compensation and one retry, then the refusal.
func (b *Broker) compensateAndRetry(m *admission) {
	err := m.err
	freed, cerr := b.compensate(m.floor)
	if cerr != nil {
		err = reportRefusal(requestRefused, m.id, err, cerr)
	} else if m.grant, err = b.alloc.AllocateGuaranteed(string(m.id), m.quality, m.floor); err != nil {
		err = reportRefusal(retryRefused, m.id, err, nil)
	} else {
		m.compensated = freed
		b.commit([]*admission{m})
		return
	}
	b.resolve(m, err)
}

// commit is the back half of the pipeline for members holding an
// allocator grant: per-member GARA reservation with rollback, one
// locked install pass with per-session confirm timers, one journal
// append (one fsync) carrying a per-session record each, then ticket
// resolution.
func (b *Broker) commit(granted []*admission) {
	// Mechanism: temporary GARA reservations. A reservation failure is
	// final for that member only.
	reserved := granted[:0]
	for _, m := range granted {
		if !m.grant.Shortfall.IsZero() {
			// Only the floor was granted; reprice at what is delivered.
			m.quality = m.grant.Granted
			m.price = b.prices.Cost(m.req.Class, m.quality)
		}
		handle, err := b.reserve(m.id, reservationRSL(m.req.Spec, m.grant.Granted), m.req.Start, m.req.End)
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

	var one [1]sla.ID // as in negotiate: no heap slice for a batch of one
	ids := one[:0]
	if len(reserved) > 1 {
		ids = make([]sla.ID, 0, len(reserved))
	}
	for _, m := range reserved {
		ids = append(ids, m.id)
	}
	now := b.clock.Now()
	expires := now.Add(b.cfg.ConfirmWindow)
	err := b.install(ids, func(i int) gara.Handle { return reserved[i].handle }, func() {
		b.proposeLocked(reserved, now, expires)
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
	b.journalBatch("propose", ids)
	for _, m := range reserved {
		b.resolve(m, nil)
	}
}

// reserve creates the GARA reservation behind id's grant, idempotently: a retry after a lost reply adopts the reservation already
// committed under the SLA's tag instead of double-committing it. On failure
// the grant is released and the rollback journaled before the error comes
// back.
func (b *Broker) reserve(id sla.ID, spec string, start, end time.Time) (gara.Handle, error) {
	tag := string(id)
	args := garaArgs{g: b.cfg.GARA, rsl: spec, tag: tag, start: start, end: end}
	handle, err := call(b.pol, "gara.create", args, func(a garaArgs) (gara.Handle, error) {
		if h, ok := a.g.FindByTag(a.tag); ok {
			return h, nil // an earlier attempt committed it, then lost the reply
		}
		return a.g.Create(a.rsl, a.start, a.end, a.tag)
	})
	if err != nil {
		_ = b.alloc.ReleaseGuaranteed(tag)
		// A timed-out or partially-failed attempt may still have
		// committed the reservation; park it so the reconciliation
		// sweep cancels it rather than leaking it.
		if h, ok := b.cfg.GARA.FindByTag(tag); ok {
			b.parkCancel(id, h)
		}
		// The failed admission may have preempted best-effort grants;
		// journal the post-rollback aux or replay resurrects them.
		b.journalAux("rollback")
	}
	return handle, err
}

// install runs put — which registers the sessions of ids — under the
// broker lock. If the broker shut down while the sessions were
// negotiating, nothing is registered: the grants and the reservations
// (handle(i) is ids[i]'s) are walked back rather than leaked into a
// closed broker, and ErrClosed returned.
func (b *Broker) install(ids []sla.ID, handle func(i int) gara.Handle, put func()) error {
	b.mu.Lock()
	if !b.closed.Load() {
		put()
		b.mu.Unlock()
		return nil
	}
	b.mu.Unlock()
	for i, id := range ids {
		_ = b.alloc.ReleaseGuaranteed(string(id))
		_ = b.cfg.GARA.Cancel(handle(i))
	}
	b.journalAux("rollback")
	return ErrClosed
}

// proposeLocked registers the batch's sessions as Proposed, arms their
// confirm timers and snapshots their offers. The caller holds b.mu.
func (b *Broker) proposeLocked(reserved []*admission, now, expires time.Time) {
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
			Start:     m.req.Start,
			End:       m.req.End,
			Price:     m.price,
			Allocated: allocated,
			State:     sla.StateProposed,
		}
		sess := &session{doc: doc, handle: m.handle, original: allocated, proposedAt: now}
		b.putLive(id, sess)
		// Schedule the auto-cancel only after the session is registered: the
		// clock may fire the callback the instant it is armed (a concurrent
		// Advance past the window), and an expiry that finds no session would
		// silently leave the offer un-expirable. Timer scheduling never fires
		// callbacks synchronously under the clock's lock, so arming it under
		// b.mu cannot deadlock.
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
		var arr [160]byte
		b.logLine("offer", m.id, appendOfferLine(arr[:0], m.grant.Granted, m.price, expires))
	} else {
		b.logf("offer", "", "group-commit: %d offer(s) proposed in one batch", len(reserved))
	}
}

// discover asks the registry for the first live service matching the
// request's name and QoS floor (the UDDIe property search of §2.1). With
// no registry configured the request is accepted as-is.
func (b *Broker) discover(req Request, floor resource.Capacity) (registry.Key, error) {
	if b.cfg.Registry == nil {
		return "", nil
	}
	key, ok := b.cfg.Registry.First(req.Service, floor)
	if !ok {
		return "", fmt.Errorf("%w: %q with %v", ErrNoService, req.Service, floor)
	}
	return key, nil
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

// errNoVolunteers is compensation's failure when no live SLA is willing
// to give anything up.
var errNoVolunteers = errors.New("core: no active SLA accepts degradation or termination")

// compensate implements scenario 1: "adaptation can be used to free
// resources to accommodate the new request by adjusting resource
// allocations of active services while still satisfying their SLAs. …
// The list is filtered to include only those services whose SLAs indicate
// willingness to accept a degraded QoS and/or termination of service."
// It degrades willing active sessions to their floors, then (if still
// needed) terminates willing-to-terminate sessions, cheapest first. It
// reports whether anything was freed.
func (b *Broker) compensate(needed resource.Capacity) (bool, error) {
	b.mu.Lock()
	// Snapshot everything the ladder ordering reads while b.mu is held:
	// the documents stay owned by the session table and may be mutated
	// (price, state) by concurrent lifecycle calls once the lock is
	// released.
	var degradable, terminable []ladderTarget
	for _, s := range b.live {
		if s.doc.State != sla.StateActive && s.doc.State != sla.StateEstablished {
			continue
		}
		id := s.doc.ID
		floor := s.doc.Spec.Floor()
		if s.doc.Adapt.AcceptDegradation && !s.doc.Allocated.Sub(floor).ClampMin(resource.Capacity{}).IsZero() {
			degradable = append(degradable, ladderTarget{id: id, price: s.doc.Price})
		}
		if s.doc.Adapt.AcceptTermination {
			terminable = append(terminable, ladderTarget{id: id, price: s.doc.Price})
		}
	}
	b.mu.Unlock()

	if len(degradable) == 0 && len(terminable) == 0 {
		return false, errNoVolunteers
	}

	cheapestFirst(degradable)
	cheapestFirst(terminable)

	freed := false
	for _, t := range degradable {
		if needed.FitsIn(b.alloc.AvailableGuaranteed()) {
			break
		}
		if err := b.degradeToFloor(t.id); err == nil {
			freed = true
		}
	}
	for _, t := range terminable {
		if needed.FitsIn(b.alloc.AvailableGuaranteed()) {
			break
		}
		// Tear down without the scenario-2 hook: running it here would
		// restore the volunteers degraded above and hand the freed
		// capacity straight back.
		if err := b.teardown(t.id, sla.StateTerminated,
			"terminated to compensate for a new request (scenario 1)"); err == nil {
			b.met.terminated.Inc()
			freed = true
		}
	}
	if freed {
		b.met.compensations.Inc()
	}
	if avail := b.alloc.AvailableGuaranteed(); !needed.FitsIn(avail) {
		return freed, &Refusal{Need: needed, Avail: avail, form: compensationShort}
	}
	return freed, nil
}

// degradeToFloor shrinks a live session to its SLA floor (still
// satisfying the SLA) and records it as degraded.
func (b *Broker) degradeToFloor(id sla.ID) error {
	_, err := b.reallocate(id, move{
		toFloor: true, notes: qualityNotes, mark: markDegraded,
		line:  degradedLine,
		count: b.met.degraded, // scenario 1
	})
	return err
}

// Accept confirms a proposed offer: the SLA is established, the temporary
// reservation committed, and the client charged.
func (b *Broker) Accept(id sla.ID) error {
	defer b.debugCheck("accept")
	b.mu.Lock()
	s, ok := b.sessions[id]
	if !ok {
		b.mu.Unlock()
		return fmt.Errorf("%w: %s", ErrUnknownSession, id)
	}
	if state := s.doc.State; state != sla.StateProposed {
		b.mu.Unlock()
		return fmt.Errorf("%w: %s is %s", ErrBadState, id, state)
	}
	if s.confirm != nil {
		s.confirm.Stop()
		s.confirm = nil
	}
	if err := s.doc.Transition(sla.StateEstablished); err != nil {
		b.mu.Unlock()
		return err
	}
	price := s.doc.Price
	var arr [80]byte
	b.logLine("sla", id, appendChargeLine(arr[:0], price))
	b.mu.Unlock()

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
// (§5.1). The grant is immediate or refused.
func (b *Broker) BestEffortRequest(client string, amount resource.Capacity) error {
	defer b.debugCheck("best-effort")
	if b.closed.Load() {
		return ErrClosed
	}
	if err := b.alloc.AllocateBestEffort(client, amount); err != nil {
		b.logf("best-effort", "", "denied %v to %q: %v", amount, client, err)
		return err
	}
	b.journalAux("be-grant")
	var arr [160]byte
	b.logLine("best-effort", "", appendGrantLine(arr[:0], amount, client))
	return nil
}

// BestEffortRelease returns a best-effort client's capacity.
func (b *Broker) BestEffortRelease(client string) error {
	defer b.debugCheck("best-effort-release")
	err := b.alloc.ReleaseBestEffort(client)
	if err == nil || errors.Is(err, ErrUnknownUser) {
		b.journalAux("be-release")
	}
	if err != nil {
		return err
	}
	var arr [96]byte
	b.logLine("best-effort", "", appendReleaseLine(arr[:0], client))
	b.afterRelease()
	return nil
}

// newSLAID renders "<domain>-sla-NNNN": the counter zero-padded to four
// digits, as %04d would, appended rather than printed since every
// admission takes one.
func (b *Broker) newSLAID() sla.ID {
	n := b.nextID.Add(1)
	var arr [64]byte
	buf := append(arr[:0], strings.ToLower(nonEmpty(b.cfg.Domain, "aqos"))...)
	buf = append(buf, "-sla-"...)
	for w := int64(1000); w > 1 && n < w; w /= 10 {
		buf = append(buf, '0')
	}
	buf = strconv.AppendInt(buf, n, 10)
	return sla.ID(buf)
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
	hasCPU, hasMem, hasDisk := spec.Has(resource.CPU), spec.Has(resource.MemoryMB), spec.Has(resource.DiskGB)
	compute := hasCPU || hasMem || hasDisk
	network := spec.Has(resource.BandwidthMbps)
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
		buf = rsl.AppendQuoted(buf, spec.SourceIP)
		buf = append(buf, ")(dest-ip="...)
		buf = rsl.AppendQuoted(buf, spec.DestIP)
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
