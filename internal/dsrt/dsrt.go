// Package dsrt is a from-scratch stand-in for the Dynamic Soft Real-Time
// (DSRT) CPU scheduler of Chu & Nahrstedt that the paper's prototype uses
// as its computation scheduler (§6: "The developed QoS broker is integrated
// with the Dynamic Soft Real-Time (DSRT) scheduler as the computation (CPU)
// scheduler — which operates in a single processor and multiprocessor
// system").
//
// It reproduces the pieces the G-QoSM broker depends on:
//
//   - CPU service classes based on process usage patterns, with the notion
//     of a *contract* specifying the class and the reserved CPU share;
//   - an admission test keeping the sum of reservations within capacity;
//   - usage-pattern tracking per process; and
//   - *system-initiated adaptation*: as the processing time per period
//     changes, contract parameters are adjusted "to reserve just enough CPU
//     time to execute the required processes" — the resource-manager-level
//     adaptation the AQoS broker tries before its own (§3.2).
package dsrt

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"gqosm/internal/faultx"
	"gqosm/internal/obs"
)

// Class is a DSRT CPU service class, chosen by the usage pattern of the
// process.
type Class int

// CPU service classes.
const (
	// PeriodicConstant (PCPT): periodic process with constant processing
	// time per period; its reservation is never auto-adjusted.
	PeriodicConstant Class = iota + 1
	// PeriodicVariable (PVPT): periodic process whose per-period
	// processing time varies; subject to system-initiated adaptation.
	PeriodicVariable
	// Aperiodic: event-driven process given a statistical share;
	// subject to system-initiated adaptation.
	Aperiodic
)

// String returns the class mnemonic.
func (c Class) String() string {
	switch c {
	case PeriodicConstant:
		return "PCPT"
	case PeriodicVariable:
		return "PVPT"
	case Aperiodic:
		return "APERIODIC"
	default:
		return fmt.Sprintf("class(%d)", int(c))
	}
}

// PID identifies a registered process.
type PID int

// Contract specifies the CPU service class "together with a parameter used
// to reserve CPU time" (the reserved fraction of one processor in [0, 1]).
type Contract struct {
	Class Class
	// Share is the reserved fraction of one CPU, 0 < Share ≤ 1.
	Share float64
	// PeriodMS is the nominal scheduling period in milliseconds
	// (informational for PCPT/PVPT).
	PeriodMS float64
}

// Validate checks contract sanity.
func (c Contract) Validate() error {
	if c.Class != PeriodicConstant && c.Class != PeriodicVariable && c.Class != Aperiodic {
		return fmt.Errorf("dsrt: unknown class %d", c.Class)
	}
	if c.Share <= 0 || c.Share > 1 {
		return fmt.Errorf("dsrt: share %g outside (0, 1]", c.Share)
	}
	if c.PeriodMS < 0 {
		return fmt.Errorf("dsrt: negative period %g", c.PeriodMS)
	}
	return nil
}

// Scheduler errors.
var (
	// ErrAdmission is returned when a reservation would exceed capacity.
	ErrAdmission = errors.New("dsrt: admission test failed")
	// ErrUnknownPID is returned for operations on unregistered processes.
	ErrUnknownPID = errors.New("dsrt: unknown pid")
)

// Process is the scheduler's view of one registered process.
type Process struct {
	Contract Contract
	// AvgUsage is the exponentially-weighted average of reported usage
	// (fraction of one CPU actually consumed).
	AvgUsage float64
	// Reports counts usage reports received.
	Reports int
}

// Config sizes the scheduler.
type Config struct {
	// Processors is the number of CPUs, each fully reservable: total
	// capacity is Processors shares (default 1).
	Processors int
}

const (
	// usageAlpha is the EWMA weight for usage tracking.
	usageAlpha float64 = 0.3
	// headroom is the safety margin system-initiated adaptation keeps
	// above observed usage when shrinking a contract (reserve 110% of the
	// observed average).
	headroom float64 = 0.1
	// minShare floors auto-adjusted contracts.
	minShare float64 = 0.01
)

// AdjustmentFunc is notified when system-initiated adaptation changes a
// process's contract (old and new shares). The AQoS broker uses this to
// learn that RM-level adaptation took place.
type AdjustmentFunc func(pid PID, oldShare, newShare float64)

// Scheduler is a multiprocessor DSRT instance. It is safe for concurrent
// use.
type Scheduler struct {
	cfg      Config
	onAdjust AdjustmentFunc

	mu     sync.Mutex
	nextID PID
	procs  map[PID]*Process

	// faults injects admission failures; nil injects nothing. Set at
	// assembly time, before the scheduler serves requests.
	faults *faultx.Injector
}

// InjectFaults installs a fault injector on process admission (site
// "dsrt.register"). Call at assembly time.
func (s *Scheduler) InjectFaults(inj *faultx.Injector) { s.faults = inj }

// New returns a scheduler with the given configuration.
func New(cfg Config, onAdjust AdjustmentFunc) *Scheduler {
	if cfg.Processors <= 0 {
		cfg.Processors = 1
	}
	return &Scheduler{cfg: cfg, onAdjust: onAdjust, procs: make(map[PID]*Process)}
}

// Capacity returns the total reservable CPU share.
func (s *Scheduler) Capacity() float64 {
	return float64(s.cfg.Processors)
}

// Reserved returns the sum of all contracted shares.
func (s *Scheduler) Reserved() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.reservedLocked()
}

func (s *Scheduler) reservedLocked() float64 {
	total := 0.0
	for _, p := range s.procs {
		total += p.Contract.Share
	}
	return total
}

// Register admits a new process under the given contract, returning its
// PID. The admission test requires the total of all shares to stay within
// Capacity.
func (s *Scheduler) Register(c Contract) (PID, error) {
	if err := c.Validate(); err != nil {
		return 0, err
	}
	if err := s.faults.Do("dsrt.register", func() error { return nil }); err != nil {
		return 0, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.reservedLocked()+c.Share > s.Capacity()+1e-9 {
		return 0, fmt.Errorf("%w: reserved %.3f + %.3f > capacity %.3f",
			ErrAdmission, s.reservedLocked(), c.Share, s.Capacity())
	}
	s.nextID++
	pid := s.nextID
	s.procs[pid] = &Process{Contract: c}
	return pid, nil
}

// Unregister releases a process's reservation.
func (s *Scheduler) Unregister(pid PID) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.procs[pid]; !ok {
		return fmt.Errorf("%w: %d", ErrUnknownPID, pid)
	}
	delete(s.procs, pid)
	return nil
}

// SetShare changes a process's contracted share explicitly (broker-driven
// re-negotiation), running the admission test.
func (s *Scheduler) SetShare(pid PID, share float64) error {
	if share <= 0 || share > 1 {
		return fmt.Errorf("dsrt: share %g outside (0, 1]", share)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	p, ok := s.procs[pid]
	if !ok {
		return fmt.Errorf("%w: %d", ErrUnknownPID, pid)
	}
	others := s.reservedLocked() - p.Contract.Share
	if others+share > s.Capacity()+1e-9 {
		return fmt.Errorf("%w: %.3f + %.3f > %.3f", ErrAdmission, others, share, s.Capacity())
	}
	p.Contract.Share = share
	return nil
}

// ReportUsage records one period's observed CPU consumption (fraction of
// one CPU) for the process and performs system-initiated adaptation for
// PVPT/Aperiodic processes: the contract share converges toward "just
// enough" — observed average usage plus headroom — never exceeding the
// original bound of 1.0 and never below minShare, and only when the change
// passes the admission test (growing) or is a genuine shrink.
func (s *Scheduler) ReportUsage(pid PID, usage float64) error {
	if usage < 0 {
		return fmt.Errorf("dsrt: negative usage %g", usage)
	}
	var adjust func()
	s.mu.Lock()
	p, ok := s.procs[pid]
	if !ok {
		s.mu.Unlock()
		return fmt.Errorf("%w: %d", ErrUnknownPID, pid)
	}
	if p.Reports == 0 {
		p.AvgUsage = usage
	} else {
		p.AvgUsage = usageAlpha*usage + (1-usageAlpha)*p.AvgUsage
	}
	p.Reports++

	if p.Contract.Class != PeriodicConstant {
		target := math.Min(1.0, math.Max(minShare, p.AvgUsage*(1+headroom)))
		old := p.Contract.Share
		if math.Abs(target-old) > 0.01 { // dead-band to avoid churn
			grow := target - old
			if grow <= 0 || s.reservedLocked()+grow <= s.Capacity()+1e-9 {
				p.Contract.Share = target
				if s.onAdjust != nil {
					pidCopy, oldCopy, newCopy := pid, old, target
					adjust = func() { s.onAdjust(pidCopy, oldCopy, newCopy) }
				}
			}
		}
	}
	s.mu.Unlock()
	if adjust != nil {
		adjust() // callback outside the lock
	}
	return nil
}

// Get returns a copy of the process record.
func (s *Scheduler) Get(pid PID) (Process, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	p, ok := s.procs[pid]
	if !ok {
		return Process{}, fmt.Errorf("%w: %d", ErrUnknownPID, pid)
	}
	return *p, nil
}

// Utilization returns reserved/capacity in [0, 1+].
func (s *Scheduler) Utilization() float64 {
	cap := s.Capacity()
	if cap == 0 {
		return 0
	}
	return s.Reserved() / cap
}

// Instrument registers CPU-reserve gauges on reg. All values are
// computed at scrape time from scheduler state — the reservation path
// itself is untouched.
func (s *Scheduler) Instrument(reg *obs.Registry) {
	reg.GaugeFunc("gqosm_dsrt_cpu_capacity",
		"Total reservable CPU share", s.Capacity)
	reg.GaugeFunc("gqosm_dsrt_cpu_reserved",
		"Sum of contracted CPU shares", s.Reserved)
	reg.GaugeFunc("gqosm_dsrt_cpu_utilization",
		"Reserved fraction of reservable CPU", s.Utilization)
	reg.GaugeFunc("gqosm_dsrt_processes",
		"Processes under CPU contract", func() float64 {
			s.mu.Lock()
			defer s.mu.Unlock()
			return float64(len(s.procs))
		})
}
