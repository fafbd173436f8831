package core

import (
	"gqosm/internal/resource"
	"gqosm/internal/sla"
)

// Entry points of the moves no exported call reaches on its own, for the
// reallocation tests in package core_test (which must live there to use
// the invariant oracle).

func (b *Broker) DegradeToFloor(id sla.ID) error { return b.degradeToFloor(b.shardFor(id), id) }
func (b *Broker) Restore(id sla.ID) error        { return b.restore(id) }
func (b *Broker) IssuePromotions()               { b.issuePromotions() }
func (b *Broker) HandleDegradation(id sla.ID, measured resource.Capacity) {
	b.handleDegradation(id, measured)
}

// AppendPolicy adds a test double to the policy table of this test
// binary, so a broker can be configured with it by name. Call from init.
func AppendPolicy(p Policy) { policies = append(policies, p) }
