package resource

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"strconv"
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

// edge is one boundary of a reservation in the pool's availability
// profile: r.Amount comes into force at r.Start and leaves at r.End.
type edge struct {
	// at is r.Start or r.End without its monotonic reading, so every
	// comparison is by wall time and the order is total: time.Time compares
	// two monotonic readings when both sides carry one and wall times
	// otherwise, which is not transitive across a clock step.
	at  time.Time
	r   *Reservation
	end bool
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
	res     map[ReservationID]*Reservation // by ID, for Release and Resize
	// edges is the availability profile: two edges per reservation, sorted
	// by (instant, issue sequence). Every capacity question is one pass over
	// it in time order, so a sum has one order of addition whatever the map
	// holds. The sequence is not stored: a new reservation is the latest
	// issued, so its edges go after every edge already at their instant.
	edges []edge
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
	avail := p.minAvailableLocked(start, end, nil)
	if !amount.FitsIn(avail) {
		return nil, fmt.Errorf("%w: pool %q has %v available over [%s, %s), need %v",
			ErrInsufficientCapacity, p.name, avail,
			start.Format(time.RFC3339), end.Format(time.RFC3339), amount)
	}
	p.nextID++
	var buf [48]byte // on the stack; append moves a longer name to the heap
	id := strconv.AppendInt(append(append(buf[:0], p.name...), '-'), int64(p.nextID), 10)
	r := &Reservation{
		ID:     ReservationID(id),
		Amount: amount,
		Start:  start,
		End:    end,
		Tag:    tag,
	}
	p.res[r.ID] = r
	p.insertEdgeLocked(edge{at: start.Round(0), r: r})
	p.insertEdgeLocked(edge{at: end.Round(0), r: r, end: true})
	return cloneRes(r), nil
}

// Release cancels the reservation with the given ID.
func (p *Pool) Release(id ReservationID) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	r, ok := p.res[id]
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownReservation, id)
	}
	delete(p.res, id)
	p.removeEdgeLocked(r.End.Round(0), r)
	p.removeEdgeLocked(r.Start.Round(0), r)
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
	avail := p.minAvailableLocked(r.Start, r.End, r)
	if !amount.FitsIn(avail) {
		return fmt.Errorf("%w: resize %s to %v, only %v available",
			ErrInsufficientCapacity, id, amount, avail)
	}
	r.Amount = amount
	return nil
}

// InUse returns the capacity reserved at instant t.
func (p *Pool) InUse(t time.Time) Capacity {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.peakLocked(t, t, nil)
}

// Available returns the online capacity not reserved at instant t. The
// result is clamped at zero: when failures make the pool transiently
// oversubscribed the available capacity is zero, not negative.
func (p *Pool) Available(t time.Time) Capacity {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.minAvailableLocked(t, t, nil)
}

// minAvailableLocked returns the least online capacity left free at any
// instant of [start, end) by every reservation but skip, clamped at zero.
// Subtracting the peak once gives the same value as taking the minimum of
// a subtraction per instant: x -> max(online-x, 0) only falls as x rises.
func (p *Pool) minAvailableLocked(start, end time.Time, skip *Reservation) Capacity {
	return p.total.Sub(p.offline).Sub(p.peakLocked(start, end, skip)).ClampMin(Capacity{})
}

// peakLocked returns, per dimension, the most capacity in force at any
// instant of the half-open window [start, end), leaving skip out; with
// end == start that is what is in force at start. It is one pass over the
// profile in time order: every edge at or before start is accumulated (a
// reservation ending exactly at start has left, one starting there is
// in), then the running sum is sampled after each distinct instant before
// end (a reservation starting exactly at end never counts). In-force
// capacity is piecewise constant between edges, so this is exact.
func (p *Pool) peakLocked(start, end time.Time, skip *Reservation) Capacity {
	start, end = start.Round(0), end.Round(0)
	edges := p.edges
	var used, peak Capacity
	for i, at := 0, start; ; at = edges[i].at {
		for ; i < len(edges) && !edges[i].at.After(at); i++ {
			switch e := &edges[i]; {
			case e.r == skip:
			case e.end:
				used = used.Sub(e.r.Amount)
			default:
				used = used.Add(e.r.Amount)
			}
		}
		peak = peak.Max(used)
		if i == len(edges) || !edges[i].at.Before(end) {
			return peak
		}
	}
}

func (p *Pool) insertEdgeLocked(e edge) {
	i := sort.Search(len(p.edges), func(i int) bool { return p.edges[i].at.After(e.at) })
	p.edges = slices.Insert(p.edges, i, e)
}

// removeEdgeLocked drops r's edge at instant at: a reservation has one
// edge per boundary, so identity picks it out among the ties.
func (p *Pool) removeEdgeLocked(at time.Time, r *Reservation) {
	i := sort.Search(len(p.edges), func(i int) bool { return !p.edges[i].at.Before(at) })
	for p.edges[i].r != r {
		i++
	}
	p.edges = slices.Delete(p.edges, i, i+1)
}

func cloneRes(r *Reservation) *Reservation {
	c := *r
	return &c
}
