package pricing

import (
	"fmt"
	"math"
	"sync"
	"testing"
	"time"

	"gqosm/internal/resource"
	"gqosm/internal/sla"
)

func capOf(cpu, mem, disk, bw float64) resource.Capacity {
	return resource.Capacity{CPU: cpu, MemoryMB: mem, DiskGB: disk, BandwidthMbps: bw}
}

func slaN(i int) sla.ID { return sla.ID(fmt.Sprintf("sla-%04d", i)) }

func TestAccountDebitCredit(t *testing.T) {
	a := NewAccount(100)
	if !a.Debit(60) {
		t.Fatal("Debit(60) within limit refused")
	}
	if got := a.Remaining(); math.Abs(got-40) > 1e-9 {
		t.Fatalf("Remaining = %g, want 40", got)
	}
	if a.Debit(41) {
		t.Fatal("Debit(41) over limit accepted")
	}
	if got := a.Remaining(); math.Abs(got-40) > 1e-9 {
		t.Fatalf("failed debit changed Remaining: %g", got)
	}
	if !a.Debit(40) {
		t.Fatal("Debit(40) exactly to limit refused")
	}
	if got := a.Remaining(); got != 0 {
		t.Fatalf("account at limit has %g remaining", got)
	}
	if a.Debit(0.01) {
		t.Fatal("debit on exhausted account accepted")
	}
}

func TestAccountEdgeCases(t *testing.T) {
	unconstrained := NewAccount(0)
	if !unconstrained.Debit(1e12) {
		t.Fatal("unconstrained account refused a debit")
	}
	if got := unconstrained.Remaining(); got != 0 {
		t.Fatalf("unconstrained Remaining = %g, want 0 sentinel", got)
	}

	a := NewAccount(10)
	if a.Debit(-5) {
		t.Fatal("negative debit accepted")
	}
	if got := a.Remaining(); got != 10 {
		t.Fatalf("negative debit changed Remaining: %g", got)
	}
	// A negative limit is normalized to unconstrained.
	if neg := NewAccount(-7); !neg.Debit(1e12) {
		t.Fatal("negative limit not normalized to unconstrained")
	}
}

// Budget exhaustion mid-session: a tenant holding a session runs out of
// budget when an upgrade is priced and keeps the session at its current
// spend — the economic scenario's churn pattern in miniature.
func TestAccountExhaustionMidSession(t *testing.T) {
	m := NewModel(DefaultRates)
	a := NewAccount(50)

	base := m.Cost(sla.ClassControlledLoad, capOf(8, 1024, 10, 0))
	if base >= 50 {
		t.Fatalf("test premise broken: base cost %g >= budget", base)
	}
	if !a.Debit(base) {
		t.Fatal("admission debit refused")
	}
	upgrade := m.Cost(sla.ClassControlledLoad, capOf(4, 512, 5, 0))
	if a.Debit(upgrade) && a.spent > 50 {
		t.Fatal("upgrade debit breached the budget")
	}
}

func TestAccountConcurrentDebits(t *testing.T) {
	// 200 goroutines race 1-unit debits against a 100-unit budget:
	// exactly 100 must win and nothing may remain.
	a := NewAccount(100)
	var wg sync.WaitGroup
	wins := make(chan bool, 200)
	for i := 0; i < 200; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			wins <- a.Debit(1)
		}()
	}
	wg.Wait()
	close(wins)
	won := 0
	for ok := range wins {
		if ok {
			won++
		}
	}
	if won != 100 {
		t.Fatalf("%d debits won, want exactly 100", won)
	}
	if got := a.Remaining(); got != 0 {
		t.Fatalf("Remaining = %g after the budget was consumed, want 0", got)
	}
}

func TestLedgerRunningNetMatchesFold(t *testing.T) {
	l := NewLedger()
	kinds := []EntryKind{EntryCharge, EntryPenalty, EntryPromotion, EntryRefund}
	for i := 0; i < 1000; i++ {
		l.Record(Entry{
			Kind:   kinds[i%len(kinds)],
			SLA:    slaN(i % 17),
			Amount: float64(i%13) * 1.75,
			At:     at.Add(time.Duration(i) * time.Minute),
		})
	}
	// Recompute by folding the retained entries (retention is off, so
	// that is every entry) and compare with the running total.
	fold := 0.0
	for _, e := range l.Entries() {
		switch e.Kind {
		case EntryCharge, EntryPromotion:
			fold += e.Amount
		case EntryPenalty, EntryRefund:
			fold -= e.Amount
		}
	}
	if got := l.NetRevenue(); got != fold {
		t.Fatalf("running NetRevenue %g != folded %g", got, fold)
	}
	if got := l.totals[EntryCharge] + l.totals[EntryPromotion] - l.totals[EntryPenalty] - l.totals[EntryRefund]; math.Abs(got-fold) > 1e-9 {
		t.Fatalf("per-kind totals disagree with fold: %g vs %g", got, fold)
	}
}

func TestLedgerRetention(t *testing.T) {
	l := NewLedger()
	l.SetRetention(100)
	for i := 0; i < 1000; i++ {
		l.Charge(slaN(i), 2, at, "c")
	}
	if n := len(l.Entries()); n < 100 || n >= 200 {
		t.Fatalf("retained %d entries, want within [100, 200) under amortized trim", n)
	}
	if got := l.NetRevenue(); math.Abs(got-2000) > 1e-9 {
		t.Fatalf("NetRevenue = %g after eviction, want 2000", got)
	}
	if l.evicted < 800 {
		t.Fatalf("evicted = %d, want >= 800", l.evicted)
	}
	// The retained window holds the most recent entries.
	entries := l.Entries()
	if first := entries[0].SLA; first < slaN(800) {
		t.Fatalf("oldest retained entry is %s, want recent tail", first)
	}
	// Shrinking the cap trims immediately; 0 disables further trimming.
	l.SetRetention(10)
	if n := len(l.Entries()); n != 10 {
		t.Fatalf("after SetRetention(10): %d entries", n)
	}
	l.SetRetention(0)
	for i := 0; i < 50; i++ {
		l.Charge(slaN(i), 1, at, "c")
	}
	if n := len(l.Entries()); n != 60 {
		t.Fatalf("retention off: %d entries, want 60", n)
	}
}

func TestLedgerConcurrentRecordAndRead(t *testing.T) {
	l := NewLedger()
	l.SetRetention(64)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				l.Charge(slaN(w), 1, at, "c")
				if i%7 == 0 {
					_ = l.NetRevenue()
					_ = l.Entries()
				}
			}
		}(w)
	}
	wg.Wait()
	if got := l.NetRevenue(); math.Abs(got-4000) > 1e-9 {
		t.Fatalf("NetRevenue = %g, want 4000", got)
	}
	if n := len(l.Entries()); n > 128 {
		t.Fatalf("retention failed to bound entries: %d", n)
	}
}
