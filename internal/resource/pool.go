package resource

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"
)

// Reservation errors.
var (
	// ErrInsufficientCapacity is returned when a requested reservation
	// does not fit in the pool over the requested interval.
	ErrInsufficientCapacity = errors.New("resource: insufficient capacity")
	// ErrUnknownReservation is returned for operations on a reservation
	// ID the pool does not hold.
	ErrUnknownReservation = errors.New("resource: unknown reservation")
	// ErrBadInterval is returned when a reservation interval is empty or
	// inverted.
	ErrBadInterval = errors.New("resource: end must be after start")
)

// ReservationID identifies a reservation within a pool.
type ReservationID string

// Reservation is a claim of Amount capacity over [Start, End).
type Reservation struct {
	ID     ReservationID
	Amount Capacity
	Start  time.Time
	End    time.Time
	// Tag is opaque caller data (e.g. the SLA ID the reservation backs).
	Tag string
}

// Pool hands out interval reservations against a fixed total capacity. All
// methods are safe for concurrent use.
//
// A Pool enforces the core invariant the adaptation algorithm relies on: at
// every instant, the sum of overlapping reservations never exceeds the
// pool's total capacity (plus any capacity marked failed — see SetOffline).
type Pool struct {
	name string

	mu      sync.Mutex
	total   Capacity
	offline Capacity // capacity currently inaccessible (failures)
	nextID  int
	res     map[ReservationID]*Reservation
}

// NewPool returns a pool named name with the given total capacity.
func NewPool(name string, total Capacity) *Pool {
	return &Pool{
		name:  name,
		total: total,
		res:   make(map[ReservationID]*Reservation),
	}
}

// Name returns the pool's name.
func (p *Pool) Name() string { return p.name }

// Total returns the pool's configured capacity (ignoring failures).
func (p *Pool) Total() Capacity {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.total
}

// Online returns the capacity currently serviceable: total minus offline.
func (p *Pool) Online() Capacity {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.total.Sub(p.offline)
}

// SetOffline marks the given capacity as inaccessible (e.g. the three
// processor nodes that fail at t2 in the paper's §5.6 example). Existing
// reservations are not cancelled — the pool may be transiently
// oversubscribed relative to online capacity, which is exactly the
// condition the AQoS adaptation layer detects and repairs. Passing the
// zero Capacity restores full capacity.
func (p *Pool) SetOffline(c Capacity) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.offline = c
}

// Reserve claims amount over [start, end). It fails with
// ErrInsufficientCapacity if the claim would oversubscribe the pool's
// online capacity at any instant of the interval.
func (p *Pool) Reserve(amount Capacity, start, end time.Time, tag string) (*Reservation, error) {
	if !end.After(start) {
		return nil, ErrBadInterval
	}
	if !amount.IsNonNegative() {
		return nil, fmt.Errorf("resource: negative reservation amount %v", amount)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	avail := p.minAvailableLocked(start, end)
	if !amount.FitsIn(avail) {
		return nil, fmt.Errorf("%w: pool %q has %v available over [%s, %s), need %v",
			ErrInsufficientCapacity, p.name, avail,
			start.Format(time.RFC3339), end.Format(time.RFC3339), amount)
	}
	p.nextID++
	r := &Reservation{
		ID:     ReservationID(fmt.Sprintf("%s-%d", p.name, p.nextID)),
		Amount: amount,
		Start:  start,
		End:    end,
		Tag:    tag,
	}
	p.res[r.ID] = r
	return cloneRes(r), nil
}

// Release cancels the reservation with the given ID.
func (p *Pool) Release(id ReservationID) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if _, ok := p.res[id]; !ok {
		return fmt.Errorf("%w: %s", ErrUnknownReservation, id)
	}
	delete(p.res, id)
	return nil
}

// Resize changes the amount of an existing reservation, keeping its
// interval. Shrinking always succeeds; growing is admission-checked against
// the rest of the pool.
func (p *Pool) Resize(id ReservationID, amount Capacity) error {
	if !amount.IsNonNegative() {
		return fmt.Errorf("resource: negative reservation amount %v", amount)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	r, ok := p.res[id]
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownReservation, id)
	}
	old := r.Amount
	r.Amount = Capacity{} // exclude self from the admission check
	avail := p.minAvailableLocked(r.Start, r.End)
	if !amount.FitsIn(avail) {
		r.Amount = old
		return fmt.Errorf("%w: resize %s to %v, only %v available",
			ErrInsufficientCapacity, id, amount, avail)
	}
	r.Amount = amount
	return nil
}

// Get returns a copy of the reservation with the given ID.
func (p *Pool) Get(id ReservationID) (*Reservation, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	r, ok := p.res[id]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownReservation, id)
	}
	return cloneRes(r), nil
}

// Reservations returns copies of all reservations, ordered by ID.
func (p *Pool) Reservations() []*Reservation {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]*Reservation, 0, len(p.res))
	for _, r := range p.res {
		out = append(out, cloneRes(r))
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// InUse returns the capacity reserved at instant t.
func (p *Pool) InUse(t time.Time) Capacity {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.inUseLocked(t)
}

// Available returns the online capacity not reserved at instant t. The
// result is clamped at zero: when failures make the pool transiently
// oversubscribed the available capacity is zero, not negative.
func (p *Pool) Available(t time.Time) Capacity {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.total.Sub(p.offline).Sub(p.inUseLocked(t)).ClampMin(Capacity{})
}

// GC removes reservations that ended at or before now, returning how many
// were collected.
func (p *Pool) GC(now time.Time) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := 0
	for id, r := range p.res {
		if !r.End.After(now) {
			delete(p.res, id)
			n++
		}
	}
	return n
}

func (p *Pool) inUseLocked(t time.Time) Capacity {
	var used Capacity
	for _, r := range p.res {
		if !r.Start.After(t) && r.End.After(t) {
			used = used.Add(r.Amount)
		}
	}
	return used
}

// minAvailableLocked evaluates availability at every reservation boundary
// inside [start, end) plus start itself — availability is piecewise
// constant between boundaries, so this is exact.
func (p *Pool) minAvailableLocked(start, end time.Time) Capacity {
	online := p.total.Sub(p.offline)
	min := online.Sub(p.inUseLocked(start)).ClampMin(Capacity{})
	for _, r := range p.res {
		for _, edge := range [2]time.Time{r.Start, r.End} {
			if edge.After(start) && edge.Before(end) {
				avail := online.Sub(p.inUseLocked(edge)).ClampMin(Capacity{})
				min = min.Min(avail)
			}
		}
	}
	return min
}

func cloneRes(r *Reservation) *Reservation {
	c := *r
	return &c
}
