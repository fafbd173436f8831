package clockx

import (
	"sync"
	"testing"
	"time"
)

var t0 = time.Date(2003, 6, 16, 9, 0, 0, 0, time.UTC) // Middleware 2003 week

func TestManualNow(t *testing.T) {
	c := NewManual(t0)
	if got := c.Now(); !got.Equal(t0) {
		t.Fatalf("Now() = %v, want %v", got, t0)
	}
	c.Advance(90 * time.Second)
	if got, want := c.Now(), t0.Add(90*time.Second); !got.Equal(want) {
		t.Fatalf("Now() after Advance = %v, want %v", got, want)
	}
}

func TestManualSetBackwardsIsNoop(t *testing.T) {
	c := NewManual(t0)
	c.Advance(time.Hour)
	c.Set(t0) // earlier than now; must not move the clock back
	if got, want := c.Now(), t0.Add(time.Hour); !got.Equal(want) {
		t.Fatalf("Now() = %v, want %v", got, want)
	}
}

func TestManualAfterFiresInOrder(t *testing.T) {
	c := NewManual(t0)
	var order []int
	c.AfterFunc(3*time.Second, func() { order = append(order, 3) })
	c.AfterFunc(1*time.Second, func() { order = append(order, 1) })
	c.AfterFunc(2*time.Second, func() { order = append(order, 2) })
	c.Advance(5 * time.Second)
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("fire order = %v, want [1 2 3]", order)
	}
}

func TestManualAfterTieBreakByCreation(t *testing.T) {
	c := NewManual(t0)
	var order []string
	c.AfterFunc(time.Second, func() { order = append(order, "a") })
	c.AfterFunc(time.Second, func() { order = append(order, "b") })
	c.Advance(time.Second)
	if len(order) != 2 || order[0] != "a" || order[1] != "b" {
		t.Fatalf("fire order = %v, want [a b]", order)
	}
}

// TestManualAfterChannel is the hand-off the retry runner builds on a
// clock without After: an AfterFunc callback sending on a buffered channel
// delivers nothing before the deadline and the deadline's time at it.
func TestManualAfterChannel(t *testing.T) {
	c := NewManual(t0)
	ch := make(chan time.Time, 1)
	c.AfterFunc(10*time.Second, func() { ch <- c.Now() })
	c.Advance(9 * time.Second)
	select {
	case <-ch:
		t.Fatal("channel fired before the deadline")
	default:
	}
	c.Advance(5 * time.Second)
	select {
	case got := <-ch:
		if want := t0.Add(10 * time.Second); !got.Equal(want) {
			t.Fatalf("callback saw %v, want the deadline %v", got, want)
		}
	default:
		t.Fatal("channel did not fire after Advance")
	}
}

func TestManualStop(t *testing.T) {
	c := NewManual(t0)
	fired := false
	timer := c.AfterFunc(time.Second, func() { fired = true })
	if !timer.Stop() {
		t.Fatal("first Stop() = false, want true")
	}
	if timer.Stop() {
		t.Fatal("second Stop() = true, want false")
	}
	c.Advance(2 * time.Second)
	if fired {
		t.Fatal("stopped timer fired")
	}
	if c.PendingTimers() != 0 {
		t.Fatalf("PendingTimers() = %d, want 0", c.PendingTimers())
	}
}

func TestManualTimerNotDueDoesNotFire(t *testing.T) {
	c := NewManual(t0)
	fired := false
	c.AfterFunc(time.Minute, func() { fired = true })
	c.Advance(59 * time.Second)
	if fired {
		t.Fatal("timer fired early")
	}
	if c.PendingTimers() != 1 {
		t.Fatalf("PendingTimers() = %d, want 1", c.PendingTimers())
	}
	c.Advance(time.Second)
	if !fired {
		t.Fatal("timer did not fire at deadline")
	}
}

func TestManualCallbackSeesDeadlineClock(t *testing.T) {
	c := NewManual(t0)
	var sawNow time.Time
	c.AfterFunc(7*time.Second, func() { sawNow = c.Now() })
	c.Advance(time.Minute)
	if want := t0.Add(7 * time.Second); !sawNow.Equal(want) {
		t.Fatalf("callback saw Now() = %v, want %v (the deadline, not the target)", sawNow, want)
	}
}

func TestManualCascadedTimersFireInSameAdvance(t *testing.T) {
	c := NewManual(t0)
	var order []string
	c.AfterFunc(time.Second, func() {
		order = append(order, "first")
		c.AfterFunc(time.Second, func() { order = append(order, "second") })
	})
	c.Advance(3 * time.Second)
	if len(order) != 2 || order[1] != "second" {
		t.Fatalf("order = %v, want cascaded timer to fire within Advance", order)
	}
}

func TestManualConcurrentSchedule(t *testing.T) {
	c := NewManual(t0)
	var (
		wg    sync.WaitGroup
		mu    sync.Mutex
		count int
	)
	for i := 0; i < 50; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.AfterFunc(time.Millisecond, func() {
				mu.Lock()
				count++
				mu.Unlock()
			})
		}()
	}
	wg.Wait()
	c.Advance(time.Second)
	mu.Lock()
	defer mu.Unlock()
	if count != 50 {
		t.Fatalf("fired %d timers, want 50", count)
	}
}

func TestRealClockBasics(t *testing.T) {
	c := Real()
	before := time.Now()
	now := c.Now()
	if now.Before(before.Add(-time.Second)) {
		t.Fatalf("Real().Now() = %v, too far before %v", now, before)
	}
	done := make(chan struct{})
	timer := c.AfterFunc(time.Millisecond, func() { close(done) })
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("real AfterFunc did not fire")
	}
	timer.Stop() // already fired; must not panic
}

// TestManualHeapFiringOrderAtScale drives thousands of interleaved
// schedules, stops and advances and checks the heap queue fires in exact
// (deadline, creation) order — the property the soak harness's
// determinism rests on.
func TestManualHeapFiringOrderAtScale(t *testing.T) {
	c := NewManual(t0)
	const n = 5000
	type fired struct {
		at time.Time
		id int
	}
	var got []fired
	timers := make([]Timer, 0, n)
	for i := 0; i < n; i++ {
		i := i
		// Deliberately colliding deadlines: 500 distinct instants.
		d := time.Duration(1+(i*7919)%500) * time.Second
		timers = append(timers, c.AfterFunc(d, func() {
			got = append(got, fired{at: c.Now(), id: i})
		}))
	}
	// Stop every third timer before anything fires.
	stopped := make(map[int]bool)
	for i := 0; i < n; i += 3 {
		timers[i].Stop()
		stopped[i] = true
	}
	if want := n - len(stopped); c.PendingTimers() != want {
		t.Fatalf("PendingTimers() = %d, want %d", c.PendingTimers(), want)
	}
	c.Advance(600 * time.Second)
	if want := n - len(stopped); len(got) != want {
		t.Fatalf("fired %d timers, want %d", len(got), want)
	}
	for i := 1; i < len(got); i++ {
		prev, cur := got[i-1], got[i]
		if cur.at.Before(prev.at) {
			t.Fatalf("timer %d fired at %v after timer %d at %v", cur.id, cur.at, prev.id, prev.at)
		}
		if cur.at.Equal(prev.at) && cur.id < prev.id {
			t.Fatalf("tie at %v broken out of creation order: %d before %d", cur.at, prev.id, cur.id)
		}
	}
	for _, f := range got {
		if stopped[f.id] {
			t.Fatalf("stopped timer %d fired", f.id)
		}
	}
	if c.PendingTimers() != 0 {
		t.Fatalf("PendingTimers() = %d after full advance, want 0", c.PendingTimers())
	}
}

// TestManualStopAfterFireIsNoop covers the lazy-removal bookkeeping: a
// timer stopped after it fired must not skew PendingTimers.
func TestManualStopAfterFireIsNoop(t *testing.T) {
	c := NewManual(t0)
	timer := c.AfterFunc(time.Second, func() {})
	c.AfterFunc(time.Minute, func() {})
	c.Advance(2 * time.Second)
	if timer.Stop() {
		t.Fatal("Stop() on a fired timer = true, want false")
	}
	if c.PendingTimers() != 1 {
		t.Fatalf("PendingTimers() = %d, want 1", c.PendingTimers())
	}
}
