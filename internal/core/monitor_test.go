package core

import (
	"strings"
	"sync"
	"testing"
	"time"
)

// ticks reads how many monitor ticks have started on b.
func ticks(b *Broker) int64 { return b.met.monitorTicks.Value() }

// TestMonitorTickPanicRecovery: a panic inside the management work
// (here injected through the debug hook, which RunOptimizer runs) must
// not kill the loop — the tick recovers, counts the panic, and re-arms.
// On pre-PR code the panic escapes tick and the loop dies.
func TestMonitorTickPanicRecovery(t *testing.T) {
	h := newHarness(t)
	b := h.broker
	mon := NewMonitor(b, time.Minute)
	mon.Start()
	defer mon.Stop()

	b.SetDebugHook(func(*Broker) error { panic("poisoned optimizer") })
	func() {
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("panic escaped the tick into the clock: %v", r)
			}
		}()
		h.clock.Advance(time.Minute)
	}()
	if got := ticks(h.broker); got != 1 {
		t.Fatalf("ticks = %d, want 1", got)
	}
	if got := b.met.monitorPanics.Value(); got != 1 {
		t.Fatalf("panics = %d, want 1", got)
	}
	if h.clock.PendingTimers() == 0 {
		t.Fatal("panicking tick did not re-arm the timer")
	}

	// The loop keeps running once the fault clears.
	b.SetDebugHook(nil)
	h.clock.Advance(time.Minute)
	if got := ticks(h.broker); got != 2 {
		t.Fatalf("ticks after recovery = %d, want 2", got)
	}
	if got := b.met.monitorPanics.Value(); got != 1 {
		t.Fatalf("panics after recovery = %d, want 1", got)
	}

	// The recovered panic is visible in the exposition and the log.
	var sb strings.Builder
	if err := b.Obs().WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "gqosm_monitor_panics_total 1") {
		t.Fatalf("exposition missing panic counter:\n%s", sb.String())
	}
	logged := false
	for _, e := range b.Events() {
		if e.Kind == "monitor" && strings.Contains(e.Msg, "poisoned optimizer") {
			logged = true
		}
	}
	if !logged {
		t.Fatal("recovered panic not logged")
	}
}

// TestMonitorStopDuringTickDoesNotRearm drives the tick-racing-Stop
// interleaving deterministically: Stop is called from inside the tick's
// management work (via the debug hook), before the re-arm decision. The
// tick must observe the stopped flag and leave no timer behind.
func TestMonitorStopDuringTickDoesNotRearm(t *testing.T) {
	h := newHarness(t)
	b := h.broker
	mon := NewMonitor(b, time.Minute)
	mon.Start()

	b.SetDebugHook(func(*Broker) error {
		mon.Stop()
		return nil
	})
	h.clock.Advance(time.Minute)
	b.SetDebugHook(nil)

	if got := ticks(h.broker); got != 1 {
		t.Fatalf("ticks = %d, want 1", got)
	}
	if n := h.clock.PendingTimers(); n != 0 {
		t.Fatalf("pending timers after Stop-during-tick = %d, want 0", n)
	}
	h.clock.Advance(time.Hour)
	if got := ticks(h.broker); got != 1 {
		t.Fatalf("stopped monitor ticked again: %d", got)
	}
}

func TestMonitorStopThenAdvance(t *testing.T) {
	h := newHarness(t)
	mon := NewMonitor(h.broker, time.Minute)
	mon.Start()
	h.clock.Advance(time.Minute)
	if got := ticks(h.broker); got != 1 {
		t.Fatalf("ticks = %d, want 1", got)
	}
	mon.Stop()
	if n := h.clock.PendingTimers(); n != 0 {
		t.Fatalf("pending timers after Stop = %d, want 0", n)
	}
	h.clock.Advance(time.Hour)
	if got := ticks(h.broker); got != 1 {
		t.Fatalf("ticks after Stop = %d, want 1", got)
	}
	// Start after Stop is a no-op: the monitor is single-use.
	mon.Start()
	h.clock.Advance(time.Hour)
	if got := ticks(h.broker); got != 1 {
		t.Fatalf("restarted stopped monitor ticked: %d", got)
	}
}

// TestMonitorConcurrentStop races real Advance and Stop goroutines (the
// -race build is the assertion; the invariant is that ticking stops).
func TestMonitorConcurrentStop(t *testing.T) {
	h := newHarness(t)
	mon := NewMonitor(h.broker, time.Minute)
	mon.Start()
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			h.clock.Advance(time.Minute)
		}
	}()
	go func() {
		defer wg.Done()
		mon.Stop()
	}()
	wg.Wait()
	final := ticks(h.broker)
	h.clock.Advance(time.Hour)
	if got := ticks(h.broker); got != final {
		t.Fatalf("ticks advanced after Stop settled: %d -> %d", final, got)
	}
}
