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
	"gqosm/internal/resource"
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
	// cannot be interrupted) — their late side effects are what tag
	// adoption, the late-create give-back and reconciliation exist for.
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
	// deterministic harness reports. reconciled counts the parked cancels
	// the public ReconcileReservations sweep cleared (recovery's own sweep
	// reports through RecoverStats.ParkedCleared instead).
	retries, timeouts, unavailable, reconciled atomic.Int64
	reconciledTotal                            *obs.Counter
}

func newPolicyRunner(b *Broker, p RetryPolicy) *policyRunner {
	if p.Attempts <= 0 {
		p.Attempts = 1
	}
	return &policyRunner{b: b, p: p, sites: make(map[string]*siteMetrics),
		reconciledTotal: b.obs.Counter("gqosm_rm_reconciled_cancels_total",
			"Parked reservation cancels cleared by the reconciliation sweep")}
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

// An RM call's inputs travel to its op by value, so no op captures
// anything and a call allocates nothing unless an attempt is timed.
type (
	garaArgs struct {
		g          *gara.System
		h          gara.Handle
		rsl, tag   string
		start, end time.Time
	}
	rectifyArgs struct {
		rm       RMAdapter
		id       sla.ID
		doc      *sla.Document
		measured resource.Capacity
	}
	peerArgs struct {
		p   Peer
		req Request
	}
)

// call runs op(args) at site under the full policy: per-attempt timeout,
// Attempts tries, backoff between them. Returns op's result, the first
// non-transient error, or ErrRMUnavailable (wrapped) on budget
// exhaustion.
func call[A, R any](r *policyRunner, site string, args A, op func(A) (R, error)) (R, error) {
	return run(r, site, r.p.Attempts, args, op)
}

// callOnce is call with the per-attempt timeout but no retries: probe
// semantics, for calls where a second try has no value (e.g. the RM
// rectify hook — the ladder continues either way).
func callOnce[A, R any](r *policyRunner, site string, args A, op func(A) (R, error)) (R, error) {
	return run(r, site, 1, args, op)
}

func run[A, R any](r *policyRunner, site string, attempts int, args A, op func(A) (R, error)) (res R, err error) {
	m := r.metrics(site)
	var late []chan outcome[R] // attempts abandoned at their deadline
	for attempt := 0; attempt < attempts; attempt++ {
		if attempt > 0 {
			m.retries.Inc()
			r.retries.Add(1)
			if d := r.delay(attempt); d > 0 {
				r.sleep(d)
			}
		}
		start := r.b.clock.Now()
		res, err = try(r, site, args, op, &late)
		m.seconds.Observe(r.b.clock.Now().Sub(start).Seconds())
		if err == nil || !retryable(err) {
			break
		}
		hang := errors.Is(err, faultx.ErrHang)
		if hang || errors.Is(err, errAttemptTimeout) {
			m.timeouts.Inc()
			r.timeouts.Add(1)
		}
		if hang && r.p.Timeout > 0 {
			// Synchronous hang-until-deadline: the injector did not
			// really block, so charge the attempt's full deadline to
			// the virtual latency accounting.
			r.b.cfg.Faults.RecordVirtual(r.p.Timeout)
		}
	}
	if err != nil && retryable(err) {
		m.unavailable.Inc()
		r.unavailable.Add(1)
		res, err = *new(R), fmt.Errorf("core: %s: %w after %d attempt(s): %v", site, ErrRMUnavailable, attempts, err)
	}
	if late != nil {
		settleLate(r, args, res, late)
	}
	return res, err
}

// outcome is one attempt's result.
type outcome[R any] struct {
	res R
	err error
}

// try runs op(args) once, under fault injection and, when late is not
// nil, the per-attempt deadline; an abandoned attempt joins late.
func try[A, R any](r *policyRunner, site string, args A, op func(A) (R, error), late *[]chan outcome[R]) (res R, err error) {
	if late != nil && r.p.Timeout > 0 {
		return timedOp(r, site, args, op, late)
	}
	if inj := r.b.cfg.Faults; inj != nil {
		err = inj.Do(site, func() (err error) { res, err = op(args); return err })
		return res, err
	}
	return op(args)
}

// timedOp is try under the deadline, in a function of its own because
// its goroutine moves args to the heap. A timed-out op keeps running —
// RM calls cannot be interrupted — and its outcome is settled once the
// call has returned (settleLate).
func timedOp[A, R any](r *policyRunner, site string, args A, op func(A) (R, error), late *[]chan outcome[R]) (R, error) {
	done := make(chan outcome[R], 1)
	go func() {
		res, err := try(r, site, args, op, nil)
		done <- outcome[R]{res, err}
	}()
	timedOut := make(chan struct{})
	// AfterFunc + Stop, never After: a manual clock keeps abandoned
	// After timers pending forever.
	t := r.b.clock.AfterFunc(r.p.Timeout, func() { close(timedOut) })
	select {
	case o := <-done:
		t.Stop()
		return o.res, o.err
	case <-timedOut:
		*late = append(*late, done)
		return *new(R), fmt.Errorf("%w: %s after %v", errAttemptTimeout, site, r.p.Timeout)
	}
}

// settleLate waits out a call's abandoned attempts, in a goroutine that
// ends when the last of their ops returns. A reservation one of them
// created that is not final, the handle the call returned, is held by no
// session: it goes back through giveBack, which parks it if the cancel
// fails. Only gara.create returns a handle; its tag is the SLA ID. Other
// late outcomes need nothing here: tag adoption, the stale mark and the
// confirm window cover them.
func settleLate[A, R any](r *policyRunner, args A, final R, late []chan outcome[R]) {
	a, isGARA := any(args).(garaArgs)
	kept, isCreate := any(final).(gara.Handle)
	if !isGARA || !isCreate {
		return
	}
	go func() {
		for _, ch := range late {
			if h := any((<-ch).res).(gara.Handle); h != "" && h != kept {
				_ = r.b.giveBack(sla.ID(a.tag), h)
			}
		}
	}()
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

// RetryStats returns the aggregate retry-budget totals across all
// sites: retries performed, attempts timed out, calls that exhausted
// their budget, and parked cancels ReconcileReservations later cleared.
func (b *Broker) RetryStats() (retries, timeouts, unavailable, reconciled int64) {
	return b.pol.retries.Load(), b.pol.timeouts.Load(), b.pol.unavailable.Load(), b.pol.reconciled.Load()
}

// givenBack reports whether a gara.cancel outcome leaves the reservation
// returned: canceled now, or already canceled or unknown at the RM.
func givenBack(err error) bool {
	return err == nil || errors.Is(err, gara.ErrCanceled) || errors.Is(err, gara.ErrUnknownHandle)
}

// giveBack returns session id's reservation h to GARA under the
// gara.cancel policy. It returns nil once the reservation is returned;
// a cancel that exhausted its retry budget is parked for the
// reconciliation sweep and reported as ErrRMUnavailable; any other error
// is returned as it stands.
func (b *Broker) giveBack(id sla.ID, h gara.Handle) error {
	_, err := call(b.pol, "gara.cancel", garaArgs{g: b.cfg.GARA, h: h}, func(a garaArgs) (struct{}, error) {
		return struct{}{}, a.g.Cancel(a.h)
	})
	switch {
	case givenBack(err):
		return nil
	case errors.Is(err, ErrRMUnavailable):
		b.parkCancel(id, h)
	}
	return err
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
// SLA order, deterministically) and returns how many were cleared. The
// monitor drives it each tick, so no reservation outlives its session
// just because an RM was down at teardown time.
//
// While a recovery is in flight the sweep is a no-op: the parked-cancel
// table is still being rebuilt from the WAL, and a monitor that re-arms
// early would race the recovery's own reconciliation sweep — cancelling
// handles the replay is about to re-own (see recover.go).
func (b *Broker) ReconcileReservations() int {
	if b.recovering.Load() {
		return 0
	}
	n := b.sweepParked()
	b.pol.reconciled.Add(int64(n))
	b.pol.reconciledTotal.Add(int64(n))
	return n
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
		// Not giveBack: a handle still failing stays parked as it is, with
		// no second park record.
		_, err := call(b.pol, "gara.cancel", garaArgs{g: b.cfg.GARA, h: h}, func(a garaArgs) (struct{}, error) {
			return struct{}{}, a.g.Cancel(a.h)
		})
		if !givenBack(err) {
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
