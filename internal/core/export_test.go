package core

import (
	"gqosm/internal/resource"
	"gqosm/internal/sla"
)

// Entry points of the moves no exported call reaches on its own, for the
// reallocation tests in package core_test (which must live there to use
// the invariant oracle).

func (b *Broker) DegradeToFloor(id sla.ID) error { return b.degradeToFloor(id) }
func (b *Broker) Restore(id sla.ID) error        { return b.restore(id) }
func (b *Broker) IssuePromotions()               { b.issuePromotions() }
func (b *Broker) HandleDegradation(id sla.ID, measured resource.Capacity) {
	b.handleDegradation(id, measured)
}

// CheckLiveSet reports where the live set and the session table
// disagree (live_test.go).
func (b *Broker) CheckLiveSet() error { return b.checkLiveSet() }

// ErrShortfall is what a restore granted only its floor returns.
var ErrShortfall = errShortfall

// BehindReads runs f, then republishes the read view from before it: the
// advisory reads lag the book the way they do for a caller that read them
// just before f ran on another goroutine. The next mutation publishes a
// fresh view.
func (a *Allocator) BehindReads(f func()) {
	v := a.view.Load()
	f()
	a.view.Store(v)
}
