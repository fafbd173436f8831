package dsrt

import (
	"errors"
	"math"
	"sync"
	"testing"
)

func newTestSched(procs int) *Scheduler {
	return New(Config{Processors: procs}, nil)
}

func TestContractValidate(t *testing.T) {
	tests := []struct {
		name    string
		c       Contract
		wantErr bool
	}{
		{"ok pcpt", Contract{Class: PeriodicConstant, Share: 0.5, PeriodMS: 33}, false},
		{"ok full share", Contract{Class: Aperiodic, Share: 1}, false},
		{"zero share", Contract{Class: PeriodicVariable, Share: 0}, true},
		{"over share", Contract{Class: PeriodicVariable, Share: 1.2}, true},
		{"bad class", Contract{Share: 0.5}, true},
		{"negative period", Contract{Class: PeriodicConstant, Share: 0.5, PeriodMS: -1}, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if err := tt.c.Validate(); (err != nil) != tt.wantErr {
				t.Errorf("Validate = %v, wantErr %v", err, tt.wantErr)
			}
		})
	}
}

func TestClassString(t *testing.T) {
	if PeriodicConstant.String() != "PCPT" || PeriodicVariable.String() != "PVPT" ||
		Aperiodic.String() != "APERIODIC" {
		t.Error("class mnemonics wrong")
	}
	if Class(9).String() != "class(9)" {
		t.Error("unknown class String")
	}
}

func TestAdmission(t *testing.T) {
	s := newTestSched(2) // capacity 2.0
	if s.Capacity() != 2.0 {
		t.Fatalf("Capacity = %g", s.Capacity())
	}
	for i := 0; i < 4; i++ {
		if _, err := s.Register(Contract{Class: PeriodicConstant, Share: 0.5}); err != nil {
			t.Fatalf("Register %d: %v", i, err)
		}
	}
	if _, err := s.Register(Contract{Class: PeriodicConstant, Share: 0.1}); !errors.Is(err, ErrAdmission) {
		t.Fatalf("over-admission err = %v", err)
	}
	if got := s.Utilization(); math.Abs(got-1.0) > 1e-9 {
		t.Errorf("Utilization = %g, want 1", got)
	}
}

func TestUnregisterFreesCapacity(t *testing.T) {
	s := newTestSched(1)
	pid, err := s.Register(Contract{Class: PeriodicConstant, Share: 0.9})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Register(Contract{Class: PeriodicConstant, Share: 0.2}); err == nil {
		t.Fatal("expected admission failure")
	}
	if err := s.Unregister(pid); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Register(Contract{Class: PeriodicConstant, Share: 0.2}); err != nil {
		t.Fatalf("Register after free: %v", err)
	}
	if err := s.Unregister(pid); !errors.Is(err, ErrUnknownPID) {
		t.Errorf("double Unregister err = %v", err)
	}
}

func TestSetShare(t *testing.T) {
	s := newTestSched(1)
	pid, err := s.Register(Contract{Class: PeriodicConstant, Share: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Register(Contract{Class: PeriodicConstant, Share: 0.4}); err != nil {
		t.Fatal(err)
	}
	// Can grow up to the free 0.1 plus own 0.5.
	if err := s.SetShare(pid, 0.6); err != nil {
		t.Fatalf("SetShare(0.6): %v", err)
	}
	if err := s.SetShare(pid, 0.7); !errors.Is(err, ErrAdmission) {
		t.Fatalf("SetShare(0.7) err = %v", err)
	}
	p, err := s.Get(pid)
	if err != nil {
		t.Fatal(err)
	}
	if p.Contract.Share != 0.6 {
		t.Errorf("share after failed grow = %g", p.Contract.Share)
	}
	if err := s.SetShare(pid, 0); err == nil {
		t.Error("SetShare(0) accepted")
	}
	if _, err := s.Get(999); !errors.Is(err, ErrUnknownPID) {
		t.Errorf("Get unknown err = %v", err)
	}
	if err := s.SetShare(999, 0.1); !errors.Is(err, ErrUnknownPID) {
		t.Errorf("SetShare unknown err = %v", err)
	}
}

func TestPCPTNeverAutoAdjusted(t *testing.T) {
	s := newTestSched(1)
	pid, err := s.Register(Contract{Class: PeriodicConstant, Share: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if err := s.ReportUsage(pid, 0.05); err != nil {
			t.Fatal(err)
		}
	}
	p, _ := s.Get(pid)
	if p.Contract.Share != 0.5 {
		t.Errorf("PCPT share adjusted to %g", p.Contract.Share)
	}
	if p.Reports != 20 {
		t.Errorf("Reports = %d", p.Reports)
	}
}

func TestSystemInitiatedAdaptationShrinks(t *testing.T) {
	// A PVPT process reserving 0.8 but using only ~0.2 should converge to
	// roughly 0.22 (usage × 1.1 headroom) — "reserve just enough CPU
	// time".
	var (
		mu          sync.Mutex
		adjustments int
	)
	s := New(Config{Processors: 1}, func(pid PID, oldS, newS float64) {
		mu.Lock()
		defer mu.Unlock()
		adjustments++
		if newS >= oldS {
			t.Errorf("adaptation grew share %g -> %g under low usage", oldS, newS)
		}
	})
	pid, err := s.Register(Contract{Class: PeriodicVariable, Share: 0.8})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if err := s.ReportUsage(pid, 0.2); err != nil {
			t.Fatal(err)
		}
	}
	p, _ := s.Get(pid)
	want := 0.2 * 1.1
	if math.Abs(p.Contract.Share-want) > 0.02 {
		t.Errorf("share converged to %g, want ≈ %g", p.Contract.Share, want)
	}
	mu.Lock()
	defer mu.Unlock()
	if adjustments == 0 {
		t.Error("no adjustment callbacks fired")
	}
}

func TestSystemInitiatedAdaptationGrowsWithinCapacity(t *testing.T) {
	s := newTestSched(1)
	pid, err := s.Register(Contract{Class: Aperiodic, Share: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if err := s.ReportUsage(pid, 0.5); err != nil {
			t.Fatal(err)
		}
	}
	p, _ := s.Get(pid)
	if p.Contract.Share < 0.5 {
		t.Errorf("share %g did not grow toward demand 0.55", p.Contract.Share)
	}
}

func TestAdaptationGrowBlockedByAdmission(t *testing.T) {
	s := newTestSched(1)
	pid, err := s.Register(Contract{Class: PeriodicVariable, Share: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	// Fill the rest of the processor.
	if _, err := s.Register(Contract{Class: PeriodicConstant, Share: 0.9}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		if err := s.ReportUsage(pid, 0.8); err != nil {
			t.Fatal(err)
		}
	}
	p, _ := s.Get(pid)
	if p.Contract.Share != 0.1 {
		t.Errorf("share grew to %g despite full capacity", p.Contract.Share)
	}
}

func TestAdaptationFloorsAtMinShare(t *testing.T) {
	s := newTestSched(1)
	pid, err := s.Register(Contract{Class: PeriodicVariable, Share: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 60; i++ {
		if err := s.ReportUsage(pid, 0); err != nil {
			t.Fatal(err)
		}
	}
	p, _ := s.Get(pid)
	if p.Contract.Share != minShare {
		t.Errorf("share = %g after 60 idle periods, want the floor %g", p.Contract.Share, minShare)
	}
}

func TestReportUsageErrors(t *testing.T) {
	s := newTestSched(1)
	if err := s.ReportUsage(42, 0.1); !errors.Is(err, ErrUnknownPID) {
		t.Errorf("unknown pid err = %v", err)
	}
	pid, _ := s.Register(Contract{Class: Aperiodic, Share: 0.1})
	if err := s.ReportUsage(pid, -0.1); err == nil {
		t.Error("negative usage accepted")
	}
}

func TestConfigDefaults(t *testing.T) {
	s := New(Config{}, nil)
	if s.Capacity() != 1.0 {
		t.Errorf("default Capacity = %g, want 1", s.Capacity())
	}
	if s.Utilization() != 0 {
		t.Errorf("empty Utilization = %g", s.Utilization())
	}
}

func TestConcurrentRegisterReport(t *testing.T) {
	s := newTestSched(16)
	var wg sync.WaitGroup
	pids := make([]PID, 16)
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			pid, err := s.Register(Contract{Class: PeriodicVariable, Share: 0.5})
			if err != nil {
				t.Errorf("Register: %v", err)
				return
			}
			pids[i] = pid
			for j := 0; j < 20; j++ {
				if err := s.ReportUsage(pid, 0.3); err != nil {
					t.Errorf("ReportUsage: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	for _, pid := range pids {
		if _, err := s.Get(pid); err != nil {
			t.Fatalf("registered process %d: %v", pid, err)
		}
	}
	if s.Reserved() > s.Capacity()+1e-9 {
		t.Fatalf("Reserved %g exceeds capacity %g", s.Reserved(), s.Capacity())
	}
}
