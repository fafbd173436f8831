package core

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"gqosm/internal/faultx"
	"gqosm/internal/gara"
	"gqosm/internal/obs"
	"gqosm/internal/sla"
	"gqosm/internal/soapx"
)

// This file is the broker's RM-facing call policy: every call that
// crosses into a resource manager (GARA create/modify/cancel/bind, the
// RM adaptation hook, federation peers) runs under a RetryPolicy —
// per-attempt timeout, bounded retries with exponential backoff — with
// budgets surfaced as obs counters. A faulted RM then degrades
// gracefully: admission retries and adopts half-committed reservations by
// tag instead of double-committing; teardown parks uncancellable
// reservations for the reconciliation sweep; a hung rectify probe times
// out and the scenario-3 ladder continues.

// ErrRMUnavailable is returned when an RM-facing call exhausts its
// retry budget on transient failures. Admission maps it to an opaque
// rejection; adaptation paths treat it as "the RM could not help" and
// continue down the scenario-3 ladder.
var ErrRMUnavailable = errors.New("core: resource manager unavailable")

// errAttemptTimeout marks one attempt exceeding RetryPolicy.Timeout.
// It is transient: the next attempt may succeed.
var errAttemptTimeout = errors.New("core: rm call attempt timed out")

// RetryPolicy bounds the broker's RM-facing calls. The zero value
// means a single attempt with no timeout and no backoff — exactly the
// direct-call behavior brokers had before this policy existed.
type RetryPolicy struct {
	// Attempts is the total number of tries per call (default 1).
	Attempts int
	// Timeout bounds each attempt; 0 disables the per-attempt deadline.
	// Timed-out attempts keep running in the background (the RM call
	// cannot be interrupted) — their late side effects are what the
	// tag-adoption and reconciliation paths exist for.
	Timeout time.Duration
	// Backoff is the base delay before the second attempt, doubling
	// each retry up to 16×Backoff. 0 retries immediately — REQUIRED
	// under a manual clock, where nothing advances time during the sleep.
	Backoff time.Duration
}

// siteMetrics are the per-site budget counters.
type siteMetrics struct {
	retries, timeouts, unavailable *obs.Counter
	seconds                        *obs.Histogram
}

// policyRunner applies the broker's RetryPolicy at named call sites.
// It is also where broker-side fault injection happens: the op runs
// under Config.Faults at the site's name, so an injected failure is
// indistinguishable from a real RM failure to everything above.
type policyRunner struct {
	b *Broker
	p RetryPolicy

	mu    sync.Mutex
	sites map[string]*siteMetrics

	// Aggregate totals, exposed through Broker.RetryStats for
	// deterministic harness reports.
	retries, timeouts, unavailable atomic.Int64
}

func newPolicyRunner(b *Broker, p RetryPolicy) *policyRunner {
	if p.Attempts <= 0 {
		p.Attempts = 1
	}
	return &policyRunner{b: b, p: p, sites: make(map[string]*siteMetrics)}
}

func (r *policyRunner) metrics(site string) *siteMetrics {
	r.mu.Lock()
	defer r.mu.Unlock()
	m := r.sites[site]
	if m == nil {
		reg := r.b.obs
		m = &siteMetrics{
			retries: reg.Counter("gqosm_rm_retries_total",
				"RM-facing call retries by site", "site", site),
			timeouts: reg.Counter("gqosm_rm_call_timeouts_total",
				"RM-facing call attempts that hit the per-attempt timeout", "site", site),
			unavailable: reg.Counter("gqosm_rm_unavailable_total",
				"RM-facing calls that exhausted their retry budget", "site", site),
			seconds: reg.Histogram("gqosm_rm_call_seconds",
				"RM-facing call attempt latency", nil, "site", site),
		}
		r.sites[site] = m
	}
	return m
}

// retryable reports whether err is transient: injected faults,
// transport failures, per-attempt timeouts, and recovery-gated peer
// refusals (a broker mid-WAL-replay answers again once recovery lands).
// Business errors (a full allocator, an unknown handle) are definitive
// answers and pass through on the attempt that produced them.
func retryable(err error) bool {
	return errors.Is(err, faultx.ErrInjected) ||
		errors.Is(err, soapx.ErrTransport) ||
		errors.Is(err, errAttemptTimeout) ||
		errors.Is(err, ErrPeerUnavailable)
}

// call runs op at site under the full policy: per-attempt timeout,
// Attempts tries, backoff between them. Returns nil, the first
// non-transient error, or ErrRMUnavailable (wrapped) on budget
// exhaustion.
func (r *policyRunner) call(site string, op func() error) error {
	return r.run(site, r.p.Attempts, op)
}

// callOnce runs op at site with the per-attempt timeout but no
// retries: probe semantics, for calls where a second try has no value
// (e.g. the RM rectify hook — the ladder continues either way).
func (r *policyRunner) callOnce(site string, op func() error) error {
	return r.run(site, 1, op)
}

func (r *policyRunner) run(site string, attempts int, op func() error) error {
	m := r.metrics(site)
	var lastErr error
	for attempt := 0; attempt < attempts; attempt++ {
		if attempt > 0 {
			m.retries.Inc()
			r.retries.Add(1)
			if d := r.delay(attempt); d > 0 {
				r.sleep(d)
			}
		}
		start := time.Now()
		err := r.attempt(site, op)
		m.seconds.Observe(time.Since(start).Seconds())
		if err == nil {
			return nil
		}
		if errors.Is(err, faultx.ErrHang) {
			// Synchronous hang-until-deadline: the injector did not
			// really block, so charge the attempt's full deadline to
			// the virtual latency accounting.
			m.timeouts.Inc()
			r.timeouts.Add(1)
			if r.p.Timeout > 0 {
				r.b.cfg.Faults.RecordVirtual(r.p.Timeout)
			}
			lastErr = err
			continue
		}
		if errors.Is(err, errAttemptTimeout) {
			m.timeouts.Inc()
			r.timeouts.Add(1)
			lastErr = err
			continue
		}
		if !retryable(err) {
			return err
		}
		lastErr = err
	}
	m.unavailable.Inc()
	r.unavailable.Add(1)
	return fmt.Errorf("core: %s: %w after %d attempt(s): %v", site, ErrRMUnavailable, attempts, lastErr)
}

// attempt runs op once, under fault injection and the per-attempt
// deadline. A timed-out op keeps running in its goroutine — RM calls
// cannot be interrupted — and its eventual side effect is reconciled
// by tag adoption or the reservation sweep.
func (r *policyRunner) attempt(site string, op func() error) error {
	wrapped := op
	if inj := r.b.cfg.Faults; inj != nil {
		wrapped = func() error { return inj.Do(site, op) }
	}
	if r.p.Timeout <= 0 {
		return wrapped()
	}
	done := make(chan error, 1)
	go func() { done <- wrapped() }()
	timedOut := make(chan struct{})
	// AfterFunc + Stop, never After: a manual clock keeps abandoned
	// After timers pending forever.
	t := r.b.clock.AfterFunc(r.p.Timeout, func() { close(timedOut) })
	select {
	case err := <-done:
		t.Stop()
		return err
	case <-timedOut:
		return fmt.Errorf("%w: %s after %v", errAttemptTimeout, site, r.p.Timeout)
	}
}

// delay computes the backoff before retry number attempt (1-based):
// Backoff doubled per retry, capped at 16×Backoff.
func (r *policyRunner) delay(attempt int) time.Duration {
	return r.p.Backoff << min(attempt-1, 4)
}

// sleep blocks for d of clock time. Under a manual clock this parks
// until someone advances time — which is why deterministic harnesses
// must run with Backoff 0.
func (r *policyRunner) sleep(d time.Duration) {
	ch := make(chan struct{})
	t := r.b.clock.AfterFunc(d, func() { close(ch) })
	defer t.Stop()
	<-ch
}

// callCreate is the idempotent-create variant of call for two-phase
// reservations: tag is the idempotency key (the SLA ID). Before every
// attempt the live reservation table is consulted, so a retry after a
// lost create reply ADOPTS the committed reservation instead of
// committing a second one.
func (r *policyRunner) callCreate(site, tag string, create func() (gara.Handle, error)) (gara.Handle, error) {
	var handle gara.Handle
	err := r.call(site, func() error {
		if h, ok := r.b.cfg.GARA.FindByTag(tag); ok {
			handle = h
			return nil
		}
		h, err := create()
		if err == nil {
			handle = h
		}
		return err
	})
	if err != nil {
		return "", err
	}
	return handle, nil
}

// RetryStats returns the aggregate retry-budget totals across all
// sites: retries performed, attempts timed out, and calls that
// exhausted their budget.
func (b *Broker) RetryStats() (retries, timeouts, unavailable int64) {
	return b.pol.retries.Load(), b.pol.timeouts.Load(), b.pol.unavailable.Load()
}

// parkCancel records a reservation whose cancel exhausted its retry
// budget; ReconcileReservations keeps retrying it.
func (b *Broker) parkCancel(id sla.ID, h gara.Handle) {
	b.pcMu.Lock()
	b.pendingCancels[id] = h
	b.journalPendingLocked("park")
	b.pcMu.Unlock()
	b.logf("reconcile", id, "reservation %s parked for cancel retry", h)
}

// PendingCancels returns how many reservations await a cancel retry.
func (b *Broker) PendingCancels() int {
	b.pcMu.Lock()
	defer b.pcMu.Unlock()
	return len(b.pendingCancels)
}

// ReconcileReservations retries every parked reservation cancel (in
// SLA order, deterministically) and returns how many were cleared.
// The monitor drives it each tick; harnesses call it during drains so
// no reservation outlives its session just because an RM was down at
// teardown time.
//
// While a recovery is in flight the sweep is a no-op: the parked-cancel
// table is still being rebuilt from the WAL, and a monitor that re-arms
// early would race the recovery's own reconciliation sweep — cancelling
// handles the replay is about to re-own (see recover.go).
func (b *Broker) ReconcileReservations() int {
	if b.recovering.Load() {
		return 0
	}
	return b.sweepParked()
}

// sweepParked is the reconcile body, shared by the public method and
// the recovery path (which runs while recovering is still true).
func (b *Broker) sweepParked() int {
	b.pcMu.Lock()
	ids := make([]sla.ID, 0, len(b.pendingCancels))
	for id := range b.pendingCancels {
		ids = append(ids, id)
	}
	handles := make(map[sla.ID]gara.Handle, len(ids))
	for _, id := range ids {
		handles[id] = b.pendingCancels[id]
	}
	b.pcMu.Unlock()
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })

	cleared := 0
	for _, id := range ids {
		h := handles[id]
		err := b.pol.call("gara.cancel", func() error { return b.cfg.GARA.Cancel(h) })
		if err != nil && !errors.Is(err, gara.ErrCanceled) && !errors.Is(err, gara.ErrUnknownHandle) {
			// Still transiently failing: leave it parked for the next
			// sweep.
			continue
		}
		b.pcMu.Lock()
		delete(b.pendingCancels, id)
		b.journalPendingLocked("unpark")
		b.pcMu.Unlock()
		cleared++
		b.logf("reconcile", id, "reservation %s cancel cleared", h)
	}
	if cleared > 0 {
		b.maybeSnapshot()
	}
	return cleared
}
