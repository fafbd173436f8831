package core

import (
	"fmt"

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

// CheckOptimizerNoop solves the §5.3 problem of a pass that
// optimizerInput proves can apply nothing, and reports it if the solve
// fails, would clear the gain threshold, or assigns any service more
// than it holds in any dimension (the lemma of DESIGN.md §3.3).
func (b *Broker) CheckOptimizerNoop() error {
	w := optPool.Get().(*optWorkspace)
	defer w.release()
	if !b.optimizerInput(w) || len(w.services) == 0 {
		return nil
	}
	b.mu.Lock()
	b.orderOptimizerInputLocked(w)
	b.mu.Unlock()
	problem := b.optimizerProblem(w)
	if err := w.greedy(problem); err != nil {
		return fmt.Errorf("skipped optimizer pass: the solve fails: %w", err)
	}
	if gain := problem.profit(w.assign) - problem.profit(w.held); gain >= b.cfg.MinOptimizerGain {
		return fmt.Errorf("skipped optimizer pass: the solve gains %g, threshold %g", gain, b.cfg.MinOptimizerGain)
	}
	for i, svc := range w.services {
		if a, h := w.assign[i], w.held[i]; a.Max(h) != h {
			return fmt.Errorf("skipped optimizer pass: the solve assigns %s %v, above the %v it holds", svc.ID, a, h)
		}
	}
	return nil
}

// RestoreTarget is the allocation a restore returns id to: the one
// before any degradation, rebased by a made optimizer, promotion or
// renegotiation move.
func (b *Broker) RestoreTarget(id sla.ID) resource.Capacity {
	b.mu.Lock()
	defer b.mu.Unlock()
	if s, ok := b.sessions[id]; ok {
		return s.original
	}
	return resource.Capacity{}
}

// ErrShortfall is what a restore granted only its floor returns.
var ErrShortfall = errShortfall

// RunOptimizerAcross runs one §5.3 pass as RunOptimizer does, with
// between called after its solve and before its apply: the pool moves
// under a pass that has already decided, the way a failure or an
// admission on another goroutine moves it.
func (b *Broker) RunOptimizerAcross(between func()) (OptimizeOutcome, error) {
	w := optPool.Get().(*optWorkspace)
	defer w.release()
	out, apply, err := b.solveOptimizer(w)
	between()
	if apply {
		out = b.applyOptimizer(w, out)
	}
	return out, err
}
