package faultx

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"gqosm/internal/clockx"
)

var epoch = time.Date(2003, 6, 16, 9, 0, 0, 0, time.UTC)

// run drives n calls against site and returns the outcome signature.
func run(i *Injector, site string, n int) string {
	sig := ""
	for k := 0; k < n; k++ {
		err := i.Do(site, func() error { return nil })
		switch {
		case err == nil:
			sig += "."
		case errors.Is(err, ErrCrashed):
			sig += "C"
		case errors.Is(err, ErrHang):
			sig += "H"
		case errors.Is(err, ErrInjected):
			sig += "X"
		default:
			sig += "?"
		}
	}
	return sig
}

func TestNilInjectorIsTransparent(t *testing.T) {
	var i *Injector
	ran := false
	if err := i.Do("any", func() error { ran = true; return nil }); err != nil || !ran {
		t.Fatalf("nil injector: ran=%v err=%v", ran, err)
	}
	i.SetDefault(Plan{Rate: 1})
	i.SetEnabled(false)
	i.ReleaseHangs()
	i.RecordVirtual(time.Second)
	if i.Total() != 0 || i.VirtualP95MS() != 0 {
		t.Fatal("nil injector must report zero")
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	mk := func() *Injector {
		i := New(7, clockx.NewManual(epoch))
		i.SetDefault(Plan{Rate: 0.3})
		return i
	}
	a, b := mk(), mk()
	sa, sb := run(a, "s", 500), run(b, "s", 500)
	if sa != sb {
		t.Fatalf("same seed diverged:\n%s\n%s", sa, sb)
	}
	if got, want := fmt.Sprint(a.CountsByKind()), fmt.Sprint(b.CountsByKind()); got != want {
		t.Fatalf("counts diverged: %s vs %s", got, want)
	}
	c := New(8, clockx.NewManual(epoch))
	c.SetDefault(Plan{Rate: 0.3})
	if run(c, "s", 500) == sa {
		t.Fatal("different seeds produced an identical 500-call schedule")
	}
}

func TestErrorFaultSkipsOperation(t *testing.T) {
	i := New(1, clockx.NewManual(epoch))
	i.SetPlan("s", Plan{Rate: 1, Kinds: []Kind{KindError}})
	ran := false
	err := i.Do("s", func() error { ran = true; return nil })
	if !errors.Is(err, ErrInjected) || ran {
		t.Fatalf("error fault: ran=%v err=%v", ran, err)
	}
}

func TestPartialFaultCommitsThenFails(t *testing.T) {
	i := New(1, clockx.NewManual(epoch))
	i.SetPlan("s", Plan{Rate: 1, Kinds: []Kind{KindPartial}})
	ran := false
	err := i.Do("s", func() error { ran = true; return nil })
	if !errors.Is(err, ErrInjected) || !ran {
		t.Fatalf("partial fault must run the op and still fail: ran=%v err=%v", ran, err)
	}
	// An op that fails on its own reports its own error, not a lost reply.
	boom := errors.New("boom")
	if err := i.Do("s", func() error { return boom }); !errors.Is(err, boom) {
		t.Fatalf("partial with failing op: %v", err)
	}
}

func TestLatencyFaultRecordsVirtualTime(t *testing.T) {
	i := New(1, clockx.NewManual(epoch))
	i.SetPlan("s", Plan{Rate: 1, Kinds: []Kind{KindLatency}})
	for k := 0; k < 10; k++ {
		if err := i.Do("s", func() error { return nil }); err != nil {
			t.Fatalf("latency fault must not fail the op: %v", err)
		}
	}
	if got := i.VirtualP95MS(); got != 50 {
		t.Fatalf("VirtualP95MS = %v, want 50", got)
	}
	if n := i.CountsByKind()["latency"]; n != 10 {
		t.Fatalf("latency count = %d, want 10", n)
	}
}

func TestCrashDownUntilClockRecovers(t *testing.T) {
	clk := clockx.NewManual(epoch)
	i := New(3, clk)
	i.SetPlan("s", Plan{Rate: 1, Kinds: []Kind{KindCrash}, CrashFor: 5 * time.Minute})
	if err := i.Do("s", func() error { return nil }); !errors.Is(err, ErrCrashed) {
		t.Fatalf("first call should crash the site: %v", err)
	}
	// While down: fail fast, op never runs, even once the plan no longer
	// injects new faults — downtime is sticky state keyed to the clock.
	i.SetPlan("s", Plan{})
	clk.Advance(4 * time.Minute)
	ran := false
	if err := i.Do("s", func() error { ran = true; return nil }); !errors.Is(err, ErrCrashed) || ran {
		t.Fatalf("site must stay down: ran=%v err=%v", ran, err)
	}
	clk.Advance(2 * time.Minute)
	if err := i.Do("s", func() error { return nil }); err != nil {
		t.Fatalf("site should have recovered: %v", err)
	}
}

func TestSetEnabledFalseClearsCrashWindows(t *testing.T) {
	clk := clockx.NewManual(epoch)
	i := New(3, clk)
	i.SetPlan("s", Plan{Rate: 1, Kinds: []Kind{KindCrash}, CrashFor: time.Hour})
	_ = i.Do("s", func() error { return nil })
	i.SetEnabled(false)
	i2 := i // same injector; disabling must make the substrate healthy at once
	if err := i2.Do("s", func() error { return nil }); err != nil {
		t.Fatalf("disable must clear crash windows: %v", err)
	}
}

func TestHangSynchronousByDefault(t *testing.T) {
	i := New(5, clockx.NewManual(epoch))
	i.SetPlan("s", Plan{Rate: 1, Kinds: []Kind{KindHang}})
	done := make(chan error, 1)
	go func() { done <- i.Do("s", func() error { return nil }) }()
	select {
	case err := <-done:
		if !errors.Is(err, ErrHang) {
			t.Fatalf("want ErrHang, got %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("synchronous hang blocked")
	}
}

func TestHangBlockOnHangUntilReleased(t *testing.T) {
	i := New(5, clockx.Real())
	i.SetPlan("s", Plan{Rate: 1, Kinds: []Kind{KindHang}, BlockOnHang: true})
	done := make(chan error, 1)
	go func() { done <- i.Do("s", func() error { return nil }) }()
	select {
	case err := <-done:
		t.Fatalf("blocking hang returned early: %v", err)
	case <-time.After(50 * time.Millisecond):
	}
	i.ReleaseHangs()
	select {
	case err := <-done:
		if !errors.Is(err, ErrHang) {
			t.Fatalf("want ErrHang after release, got %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("ReleaseHangs did not unblock the call")
	}
	// After a release, further hangs degrade to the synchronous form so
	// drains can't park goroutines forever.
	if err := i.Do("s", func() error { return nil }); !errors.Is(err, ErrHang) {
		t.Fatalf("post-release hang: %v", err)
	}
}

func TestZeroRateConsumesNoRandomness(t *testing.T) {
	// Interleaving calls to a rate-0 site must not shift the schedule of
	// a rate>0 site: zero-rate decisions draw nothing from the PRNG.
	mk := func(interleave bool) string {
		i := New(11, clockx.NewManual(epoch))
		i.SetPlan("hot", Plan{Rate: 0.5, Kinds: []Kind{KindError}})
		sig := ""
		for k := 0; k < 200; k++ {
			if interleave {
				if err := i.Do("cold", func() error { return nil }); err != nil {
					return "cold faulted"
				}
			}
			if err := i.Do("hot", func() error { return nil }); err != nil {
				sig += "X"
			} else {
				sig += "."
			}
		}
		return sig
	}
	if a, b := mk(false), mk(true); a != b {
		t.Fatalf("zero-rate site consumed randomness:\n%s\n%s", a, b)
	}
}
