// Package clockx provides injectable clocks so that every time-dependent
// component in the system (reservation expiry, confirmation windows, session
// lifetimes, monitors) can run against either the wall clock or a
// deterministic manual clock driven by tests and the discrete-event
// simulator.
package clockx

import (
	"container/heap"
	"sync"
	"time"
)

// Clock abstracts the passage of time. Implementations must be safe for
// concurrent use.
type Clock interface {
	// Now returns the current time.
	Now() time.Time
	// AfterFunc schedules f to run in its own goroutine once d has
	// elapsed and returns a Timer that can cancel it.
	AfterFunc(d time.Duration, f func()) Timer
}

// Timer is a cancellable pending callback created by AfterFunc.
type Timer interface {
	// Stop cancels the timer. It reports whether the call stopped the
	// timer before it fired.
	Stop() bool
}

// Real returns a Clock backed by the wall clock.
func Real() Clock { return realClock{} }

type realClock struct{}

func (realClock) Now() time.Time { return time.Now() }

func (realClock) AfterFunc(d time.Duration, f func()) Timer {
	return realTimer{t: time.AfterFunc(d, f)}
}

type realTimer struct{ t *time.Timer }

func (rt realTimer) Stop() bool { return rt.t.Stop() }

// Manual is a deterministic Clock whose time only moves when Advance or Set
// is called. Timers scheduled with AfterFunc fire synchronously (in
// timestamp order) during Advance. The zero value is not usable; call
// NewManual.
//
// Pending timers live in a binary min-heap ordered by (deadline, creation
// id), so scheduling and firing are O(log n) each. The soak harness keeps
// millions of timers flowing through one clock over a run; the previous
// sort-the-whole-slice-per-pop queue made every Advance O(n log n) and
// dominated long-run profiles. Stopped timers are unlinked lazily when
// they surface at the heap root; stops counts them so PendingTimers stays
// exact without a sweep.
type Manual struct {
	mu      sync.Mutex
	now     time.Time
	nextID  int
	pending timerHeap
	stops   int // stopped timers still sitting in the heap
}

// NewManual returns a Manual clock whose current time is start.
func NewManual(start time.Time) *Manual {
	return &Manual{now: start}
}

type manualTimer struct {
	clock   *Manual
	id      int
	at      time.Time
	f       func()
	stopped bool
	index   int // heap position, -1 once popped
}

// timerHeap orders pending timers by deadline, ties broken by creation
// order — exactly the firing order the sort-based queue guaranteed.
type timerHeap []*manualTimer

func (h timerHeap) Len() int { return len(h) }

func (h timerHeap) Less(i, j int) bool {
	if !h[i].at.Equal(h[j].at) {
		return h[i].at.Before(h[j].at)
	}
	return h[i].id < h[j].id
}

func (h timerHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}

func (h *timerHeap) Push(x any) {
	mt := x.(*manualTimer)
	mt.index = len(*h)
	*h = append(*h, mt)
}

func (h *timerHeap) Pop() any {
	old := *h
	n := len(old)
	mt := old[n-1]
	old[n-1] = nil
	mt.index = -1
	*h = old[:n-1]
	return mt
}

func (mt *manualTimer) Stop() bool {
	mt.clock.mu.Lock()
	defer mt.clock.mu.Unlock()
	if mt.stopped {
		return false
	}
	mt.stopped = true
	if mt.index >= 0 {
		mt.clock.stops++
	}
	return true
}

// Now implements Clock.
func (m *Manual) Now() time.Time {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.now
}

// AfterFunc implements Clock. The callback runs synchronously inside
// Advance, after the clock has moved to the timer's deadline.
func (m *Manual) AfterFunc(d time.Duration, f func()) Timer {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.nextID++
	mt := &manualTimer{clock: m, id: m.nextID, at: m.now.Add(d), f: f}
	heap.Push(&m.pending, mt)
	return mt
}

// Advance moves the clock forward by d, firing due timers in timestamp
// order (ties broken by creation order). Callbacks run with the clock set
// to their deadline, so a callback that schedules another timer within the
// remaining window will see it fire in the same Advance call.
func (m *Manual) Advance(d time.Duration) {
	m.mu.Lock()
	target := m.now.Add(d)
	m.mu.Unlock()
	m.Set(target)
}

// Set moves the clock to t (which must not be earlier than the current
// time), firing due timers as in Advance.
func (m *Manual) Set(t time.Time) {
	for {
		mt := m.popDue(t)
		if mt == nil {
			break
		}
		mt.f()
	}
	m.mu.Lock()
	if t.After(m.now) {
		m.now = t
	}
	m.mu.Unlock()
}

// popDue removes and returns the earliest unstopped timer with deadline
// ≤ target, moving the clock to that deadline; it returns nil when none
// remain. Stopped timers surfacing at the root are discarded on the way.
func (m *Manual) popDue(target time.Time) *manualTimer {
	m.mu.Lock()
	defer m.mu.Unlock()
	for len(m.pending) > 0 {
		mt := m.pending[0]
		if mt.stopped {
			heap.Pop(&m.pending)
			m.stops--
			continue
		}
		if mt.at.After(target) {
			return nil
		}
		heap.Pop(&m.pending)
		mt.stopped = true
		if mt.at.After(m.now) {
			m.now = mt.at
		}
		return mt
	}
	return nil
}

// PendingTimers reports how many unfired, unstopped timers are scheduled.
func (m *Manual) PendingTimers() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.pending) - m.stops
}

var _ Clock = (*Manual)(nil)
