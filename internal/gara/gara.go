// Package gara is a from-scratch implementation of the Globus Architecture
// for Reservation and Allocation (GARA) API surface the paper's
// Reservation System is built on (Table 2):
//
//	globus_gara_reservation_create(gatekeeper, req_rsl, &reserve_handle)
//	globus_gara_reservation_bind(reserve_handle, &bind_param)
//	globus_gara_reservation_unbind(reserve_handle)
//	globus_gara_reservation_cancel(reserve_handle)
//
// plus the Modify operation used by adaptive control ("adapts the network
// reservation using the GARA Create/Modify reservation request", §1.1).
// Reservation requests are RSL strings; a successful creation returns a
// Reservation Handle; reservations must subsequently be *claimed* by
// binding the launched process to them (§3.1).
//
// GARA provides "a uniform mechanism for making QoS reservations for
// different types of Grid resources, such as processors, networks and
// storage devices": the System routes each request to a pluggable
// ResourceManager by the request's `reservation-type` attribute, and
// multirequests (`+(...)(...)`) are co-allocated atomically across
// managers.
package gara

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"gqosm/internal/obs"
	"gqosm/internal/rsl"
)

// Handle references a reservation, as returned by Create.
type Handle string

// Status is a reservation's lifecycle status.
type Status int

// Reservation statuses.
const (
	// StatusReserved: created, not yet claimed by a process.
	StatusReserved Status = iota + 1
	// StatusBound: claimed via Bind.
	StatusBound
	// StatusCanceled: released.
	StatusCanceled
)

// String returns the status name.
func (s Status) String() string {
	switch s {
	case StatusReserved:
		return "reserved"
	case StatusBound:
		return "bound"
	case StatusCanceled:
		return "canceled"
	default:
		return fmt.Sprintf("status(%d)", int(s))
	}
}

// BindParam carries the parameters needed to claim a reservation. For
// computational resources "the process ID of the launched process is the
// only parameter required" (§3.1).
type BindParam struct {
	PID int
}

// Reservation is a snapshot of one GARA reservation (possibly a
// co-allocation across several resource managers).
type Reservation struct {
	Handle     Handle
	Spec       string // original RSL
	Start, End time.Time
	Status     Status
	BoundPID   int
	// Tag is the caller-supplied idempotency tag passed to Create (the
	// broker uses the SLA ID). Retry layers use it to adopt a
	// reservation whose create reply was lost instead of committing a
	// second one.
	Tag string
	// Parts lists the component reservations: resource-manager type →
	// manager-internal token. Single-type requests have one part.
	Parts map[string]string
}

// GARA errors.
var (
	// ErrUnknownHandle is returned for operations on unknown handles.
	ErrUnknownHandle = errors.New("gara: unknown reservation handle")
	// ErrUnknownType is returned when no manager handles a request's
	// reservation-type.
	ErrUnknownType = errors.New("gara: no resource manager for reservation-type")
	// ErrNotBound is returned by Unbind on an unbound reservation.
	ErrNotBound = errors.New("gara: reservation not bound")
	// ErrCanceled is returned for operations on canceled reservations.
	ErrCanceled = errors.New("gara: reservation canceled")
)

// ResourceManager is the per-resource-type backend GARA routes requests
// to. Implementations must be safe for concurrent use.
type ResourceManager interface {
	// Type returns the reservation-type this manager serves (e.g.
	// "compute", "network", "storage", "cpu-share").
	Type() string
	// Reserve claims the resources described by spec over [start, end),
	// returning a manager-internal token.
	Reserve(spec *rsl.Node, start, end time.Time, tag string) (string, error)
	// Modify adjusts an existing reservation to the new spec.
	Modify(token string, spec *rsl.Node) error
	// Cancel releases the reservation.
	Cancel(token string) error
}

// Binder is optionally implemented by resource managers that need to know
// when a process claims its reservation (e.g. a CPU scheduler attaching
// the PID).
type Binder interface {
	Bind(token string, param BindParam) error
	Unbind(token string) error
}

// System is a GARA instance: a registry of resource managers plus the
// reservation table. It is safe for concurrent use.
type System struct {
	mu       sync.Mutex
	nextID   int
	managers map[string]ResourceManager
	res      map[Handle]*Reservation
	// byTag indexes live (non-canceled) reservations by their idempotency
	// tag, so FindByTag — consulted on the admission hot path before every
	// create attempt — is a map lookup, not a table scan. Entries are
	// removed on Cancel; the slice is almost always length 1 (several live
	// handles under one tag means a double-commit bug upstream).
	byTag map[string][]Handle
	// met holds nil-safe reservation lifecycle counters; zero until
	// Instrument is called.
	met garaMetrics
}

type garaMetrics struct {
	created, createErrors *obs.Counter
	bound, unbound        *obs.Counter
	modified, canceled    *obs.Counter
}

// Instrument registers reservation lifecycle metrics on reg. Call once
// at assembly time, before the system serves requests.
func (s *System) Instrument(reg *obs.Registry) {
	op := func(o string) *obs.Counter {
		return reg.Counter("gqosm_gara_reservations_total",
			"GARA reservation operations by op", "op", o)
	}
	s.mu.Lock()
	s.met = garaMetrics{
		created:      op("create"),
		createErrors: op("create_error"),
		bound:        op("bind"),
		unbound:      op("unbind"),
		modified:     op("modify"),
		canceled:     op("cancel"),
	}
	s.mu.Unlock()
	reg.GaugeFunc("gqosm_gara_reservations_active",
		"Reservations currently held (not canceled)", func() float64 {
			s.mu.Lock()
			defer s.mu.Unlock()
			n := 0
			for _, r := range s.res {
				if r.Status != StatusCanceled {
					n++
				}
			}
			return float64(n)
		})
}

// NewSystem returns a System with no managers registered.
func NewSystem() *System {
	return &System{
		managers: make(map[string]ResourceManager),
		res:      make(map[Handle]*Reservation),
		byTag:    make(map[string][]Handle),
	}
}

// RegisterManager installs a resource manager; it replaces any previous
// manager of the same type.
func (s *System) RegisterManager(rm ResourceManager) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.managers[rm.Type()] = rm
}

// Create implements globus_gara_reservation_create: it parses the RSL
// request, routes each sub-request to the manager named by its
// `reservation-type` attribute, and returns a handle. Multirequests are
// co-allocated atomically: if any sub-request fails, the ones already made
// are cancelled and the error returned.
func (s *System) Create(reqRSL string, start, end time.Time, tag string) (Handle, error) {
	h, err := s.create(reqRSL, start, end, tag)
	if err != nil {
		s.met.createErrors.Inc()
	} else {
		s.met.created.Inc()
	}
	return h, err
}

func (s *System) create(reqRSL string, start, end time.Time, tag string) (Handle, error) {
	node, err := rsl.ParseCached(reqRSL)
	if err != nil {
		return "", fmt.Errorf("gara: %w", err)
	}
	subs := node.SubRequests()

	type part struct {
		rmType string
		token  string
	}
	parts := make([]part, 0, len(subs))
	managers := make([]ResourceManager, 0, len(subs))
	rollback := func() {
		for i, p := range parts {
			_ = managers[i].Cancel(p.token)
		}
	}
	for _, sub := range subs {
		rmType := sub.Str("reservation-type", "")
		if rmType == "" {
			rollback()
			return "", fmt.Errorf("%w: request lacks reservation-type: %s", ErrUnknownType, sub)
		}
		s.mu.Lock()
		rm, ok := s.managers[rmType]
		s.mu.Unlock()
		if !ok {
			rollback()
			return "", fmt.Errorf("%w: %q", ErrUnknownType, rmType)
		}
		token, err := rm.Reserve(sub, start, end, tag)
		if err != nil {
			rollback()
			return "", fmt.Errorf("gara: reserve %s: %w", rmType, err)
		}
		parts = append(parts, part{rmType: rmType, token: token})
		managers = append(managers, rm)
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	s.nextID++
	h := Handle(fmt.Sprintf("gara-%d", s.nextID))
	r := &Reservation{
		Handle: h,
		Spec:   reqRSL,
		Start:  start,
		End:    end,
		Status: StatusReserved,
		Tag:    tag,
		Parts:  make(map[string]string, len(parts)),
	}
	for _, p := range parts {
		r.Parts[p.rmType] = p.token
	}
	s.res[h] = r
	if tag != "" {
		s.byTag[tag] = append(s.byTag[tag], h)
	}
	return h, nil
}

// Bind implements globus_gara_reservation_bind: it associates a launched
// process with a previously made reservation, claiming it.
func (s *System) Bind(h Handle, param BindParam) error {
	s.mu.Lock()
	r, ok := s.res[h]
	if !ok {
		s.mu.Unlock()
		return fmt.Errorf("%w: %s", ErrUnknownHandle, h)
	}
	if r.Status == StatusCanceled {
		s.mu.Unlock()
		return fmt.Errorf("%w: %s", ErrCanceled, h)
	}
	binders := s.bindersLocked(r)
	r.Status = StatusBound
	r.BoundPID = param.PID
	s.mu.Unlock()

	for _, b := range binders {
		if err := b.binder.Bind(b.token, param); err != nil {
			return fmt.Errorf("gara: bind %s: %w", h, err)
		}
	}
	s.met.bound.Inc()
	return nil
}

// Unbind implements globus_gara_reservation_unbind: the reservation
// remains held but is no longer claimed by a process.
func (s *System) Unbind(h Handle) error {
	s.mu.Lock()
	r, ok := s.res[h]
	if !ok {
		s.mu.Unlock()
		return fmt.Errorf("%w: %s", ErrUnknownHandle, h)
	}
	if r.Status != StatusBound {
		s.mu.Unlock()
		return fmt.Errorf("%w: %s is %s", ErrNotBound, h, r.Status)
	}
	binders := s.bindersLocked(r)
	r.Status = StatusReserved
	r.BoundPID = 0
	s.mu.Unlock()

	for _, b := range binders {
		if err := b.binder.Unbind(b.token); err != nil {
			return fmt.Errorf("gara: unbind %s: %w", h, err)
		}
	}
	s.met.unbound.Inc()
	return nil
}

// Cancel implements globus_gara_reservation_cancel: every component
// reservation is released.
func (s *System) Cancel(h Handle) error {
	s.mu.Lock()
	r, ok := s.res[h]
	if !ok {
		s.mu.Unlock()
		return fmt.Errorf("%w: %s", ErrUnknownHandle, h)
	}
	if r.Status == StatusCanceled {
		s.mu.Unlock()
		return fmt.Errorf("%w: %s", ErrCanceled, h)
	}
	r.Status = StatusCanceled
	s.dropTagLocked(r.Tag, h)
	s.met.canceled.Inc()
	type pair struct {
		rm    ResourceManager
		token string
	}
	var pairs []pair
	for rmType, token := range r.Parts {
		if rm, ok := s.managers[rmType]; ok {
			pairs = append(pairs, pair{rm: rm, token: token})
		}
	}
	s.mu.Unlock()

	var firstErr error
	for _, p := range pairs {
		if err := p.rm.Cancel(p.token); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// Modify adjusts the reservation to a new RSL spec. Each sub-request is
// routed to the manager already holding that part; adding or removing
// resource types requires Cancel + Create instead. Like Create, it is
// atomic over a multirequest: if a part refuses, the parts already
// modified are walked back to the standing spec and the error returned.
func (s *System) Modify(h Handle, newRSL string) error {
	node, err := rsl.ParseCached(newRSL)
	if err != nil {
		return fmt.Errorf("gara: %w", err)
	}
	s.mu.Lock()
	r, ok := s.res[h]
	if !ok {
		s.mu.Unlock()
		return fmt.Errorf("%w: %s", ErrUnknownHandle, h)
	}
	if r.Status == StatusCanceled {
		s.mu.Unlock()
		return fmt.Errorf("%w: %s", ErrCanceled, h)
	}
	type mod struct {
		rm    ResourceManager
		token string
		spec  *rsl.Node
	}
	var mods []mod
	standing := r.Spec
	for _, sub := range node.SubRequests() {
		rmType := sub.Str("reservation-type", "")
		token, held := r.Parts[rmType]
		if !held {
			s.mu.Unlock()
			return fmt.Errorf("%w: reservation %s holds no %q part", ErrUnknownType, h, rmType)
		}
		mods = append(mods, mod{rm: s.managers[rmType], token: token, spec: sub})
	}
	s.mu.Unlock()

	for i, m := range mods {
		err := m.rm.Modify(m.token, m.spec)
		if err == nil {
			continue
		}
		err = fmt.Errorf("gara: modify %s: %w", h, err)
		// Walk the parts already modified back to the standing spec, last
		// first. A part that will not go back leaves its manager and
		// Reservation.Spec disagreeing, so that is reported too.
		was := map[string]*rsl.Node{}
		if old, parseErr := rsl.ParseCached(standing); parseErr == nil {
			for _, sub := range old.SubRequests() {
				was[sub.Str("reservation-type", "")] = sub
			}
		}
		for j := i - 1; j >= 0; j-- {
			done := mods[j]
			rmType := done.spec.Str("reservation-type", "")
			backErr := errors.New("the standing spec has no such part")
			if sub, ok := was[rmType]; ok {
				backErr = done.rm.Modify(done.token, sub)
			}
			if backErr != nil {
				err = fmt.Errorf("%w; walking the %s part back failed: %v", err, rmType, backErr)
			}
		}
		return err
	}
	s.mu.Lock()
	r.Spec = newRSL
	s.mu.Unlock()
	s.met.modified.Inc()
	return nil
}

// Get returns a snapshot of the reservation.
func (s *System) Get(h Handle) (Reservation, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	r, ok := s.res[h]
	if !ok {
		return Reservation{}, fmt.Errorf("%w: %s", ErrUnknownHandle, h)
	}
	return snapshot(r), nil
}

// FindByTag returns the handle of the live (non-canceled) reservation
// created with tag, if any. Tags are the broker's idempotency key: it
// uses one SLA ID per reservation, so at most one live reservation
// matches. With several (a double-commit bug upstream) the
// lowest-numbered handle wins, deterministically.
func (s *System) FindByTag(tag string) (Handle, bool) {
	if tag == "" {
		return "", false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	var (
		best  Handle
		found bool
	)
	for _, h := range s.byTag[tag] {
		if !found || handleLess(h, best) {
			best, found = h, true
		}
	}
	return best, found
}

// dropTagLocked removes h from the tag index. Callers hold s.mu.
func (s *System) dropTagLocked(tag string, h Handle) {
	if tag == "" {
		return
	}
	live := s.byTag[tag]
	for i, cand := range live {
		if cand == h {
			live = append(live[:i], live[i+1:]...)
			break
		}
	}
	if len(live) == 0 {
		delete(s.byTag, tag)
	} else {
		s.byTag[tag] = live
	}
}

func handleLess(a, b Handle) bool {
	if len(a) != len(b) {
		return len(a) < len(b)
	}
	return a < b
}

// PruneCanceled removes canceled reservations from the table and returns
// how many it removed. Canceled reservations are normally retained so
// their handles stay resolvable (Get reports ErrCanceled rather than
// ErrUnknownHandle); the soak harness prunes them at quiesce points so
// multi-million-op runs hold a bounded working set. Callers must be past
// any retry that might still Cancel a pruned handle — after pruning, such
// a retry sees ErrUnknownHandle instead of the idempotent ErrCanceled.
func (s *System) PruneCanceled() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	pruned := 0
	for h, r := range s.res {
		if r.Status == StatusCanceled {
			delete(s.res, h)
			pruned++
		}
	}
	return pruned
}

// Reservations returns snapshots of all reservations ordered by handle.
func (s *System) Reservations() []Reservation {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Reservation, 0, len(s.res))
	for _, r := range s.res {
		out = append(out, snapshot(r))
	}
	sort.Slice(out, func(i, j int) bool {
		if len(out[i].Handle) != len(out[j].Handle) {
			return len(out[i].Handle) < len(out[j].Handle)
		}
		return out[i].Handle < out[j].Handle
	})
	return out
}

type boundPart struct {
	binder Binder
	token  string
}

func (s *System) bindersLocked(r *Reservation) []boundPart {
	var out []boundPart
	for rmType, token := range r.Parts {
		if b, ok := s.managers[rmType].(Binder); ok {
			out = append(out, boundPart{binder: b, token: token})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].token < out[j].token })
	return out
}

func snapshot(r *Reservation) Reservation {
	c := *r
	c.Parts = make(map[string]string, len(r.Parts))
	for k, v := range r.Parts {
		c.Parts[k] = v
	}
	return c
}
