package core

import (
	"sync"
	"time"

	"gqosm/internal/clockx"
)

// Monitor drives the broker's periodic QoS-management work (the Active
// phase of Fig. 3): each tick it asks the NRM to check all flows (firing
// degradation notifications), expires sessions whose validity window
// elapsed, restores degraded sessions where capacity allows (scenario 2a)
// and runs the §5.3 optimizer ("executed periodically by the AQoS
// broker"). The paper's broker "does not constantly monitor the QoS levels
// of the allocated resources; rather it relies on the SLA-Verif
// component" — the tick interval is therefore coarse by default.
type Monitor struct {
	broker   *Broker
	clock    clockx.Clock
	interval time.Duration

	mu      sync.Mutex
	timer   clockx.Timer
	stopped bool
}

// DefaultMonitorInterval is the one tick interval of the management
// loop: aqosd's -monitor-interval default and every simulated topology's.
const DefaultMonitorInterval = time.Minute

// NewMonitor returns a monitor ticking at the given interval. A
// non-positive interval falls back to DefaultMonitorInterval: a zero
// one would re-arm at the same instant forever on a manual clock. Call
// Start to begin.
func NewMonitor(b *Broker, interval time.Duration) *Monitor {
	if interval <= 0 {
		interval = DefaultMonitorInterval
	}
	return &Monitor{broker: b, clock: b.clock, interval: interval}
}

// Start schedules the first tick. It is idempotent.
func (m *Monitor) Start() {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.timer != nil || m.stopped {
		return
	}
	m.timer = m.clock.AfterFunc(m.interval, m.tick)
}

// Stop cancels future ticks. A tick in flight completes.
func (m *Monitor) Stop() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.stopped = true
	if m.timer != nil {
		m.timer.Stop()
		m.timer = nil
	}
}

func (m *Monitor) tick() {
	// Re-arm from a defer so that a panic anywhere in the management
	// work cannot kill the loop: one poisoned session or a faulty RM
	// callback would otherwise silently end all future adaptation. The
	// re-arm decision shares m.mu with Stop, so a tick racing Stop observes
	// the stopped flag and never re-arms.
	defer func() {
		if r := recover(); r != nil {
			m.broker.met.monitorPanics.Inc()
			m.broker.logf("monitor", "", "tick panic recovered: %v", r)
		}
		m.mu.Lock()
		if !m.stopped {
			m.timer = m.clock.AfterFunc(m.interval, m.tick)
		}
		m.mu.Unlock()
	}()
	m.broker.met.monitorTicks.Inc()

	// The NRM check fires degradation notifications into the broker's
	// scenario-3 handler.
	if m.broker.cfg.NRM != nil {
		m.broker.cfg.NRM.CheckAll(m.clock.Now())
	}
	m.broker.ExpireDue()
	// Scenario 2a before the §5.3 pass: a degraded session has the first
	// claim on capacity that came back since the last tick.
	m.broker.restoreDegraded()
	_, _ = m.broker.RunOptimizer()
	// Retry reservation cancels that exhausted their budget while an RM
	// was down: teardown parks them, the monitor keeps sweeping.
	m.broker.ReconcileReservations()
}
