package resource

import (
	"errors"
	"math/rand"
	"testing"
	"time"
)

var (
	tBase = time.Date(2003, 6, 16, 9, 0, 0, 0, time.UTC)
	tEnd  = tBase.Add(8 * time.Hour)
)

func hours(h int) time.Time { return tBase.Add(time.Duration(h) * time.Hour) }

func TestPoolReserveRelease(t *testing.T) {
	p := NewPool("sgi", Nodes(26))
	r, err := p.Reserve(Nodes(10), tBase, tEnd, "sla-3")
	if err != nil {
		t.Fatalf("Reserve: %v", err)
	}
	if r.Tag != "sla-3" {
		t.Errorf("Tag = %q", r.Tag)
	}
	if got := p.InUse(tBase); !got.Equal(Nodes(10)) {
		t.Errorf("InUse = %v, want 10 nodes", got)
	}
	if got := p.Available(tBase); !got.Equal(Nodes(16)) {
		t.Errorf("Available = %v, want 16 nodes", got)
	}
	if err := p.Release(r.ID); err != nil {
		t.Fatalf("Release: %v", err)
	}
	if got := p.Available(tBase); !got.Equal(Nodes(26)) {
		t.Errorf("Available after release = %v, want 26", got)
	}
	if err := p.Release(r.ID); !errors.Is(err, ErrUnknownReservation) {
		t.Errorf("double Release err = %v, want ErrUnknownReservation", err)
	}
}

func TestPoolRejectsOversubscription(t *testing.T) {
	p := NewPool("sgi", Nodes(26))
	if _, err := p.Reserve(Nodes(20), tBase, tEnd, ""); err != nil {
		t.Fatalf("first Reserve: %v", err)
	}
	if _, err := p.Reserve(Nodes(7), tBase, tEnd, ""); !errors.Is(err, ErrInsufficientCapacity) {
		t.Fatalf("over-reserve err = %v, want ErrInsufficientCapacity", err)
	}
	// Exactly filling the pool is fine.
	if _, err := p.Reserve(Nodes(6), tBase, tEnd, ""); err != nil {
		t.Fatalf("exact-fit Reserve: %v", err)
	}
}

func TestPoolRejectsBadInput(t *testing.T) {
	p := NewPool("p", Nodes(10))
	if _, err := p.Reserve(Nodes(1), tEnd, tBase, ""); !errors.Is(err, ErrBadInterval) {
		t.Errorf("inverted interval err = %v", err)
	}
	if _, err := p.Reserve(Nodes(1), tBase, tBase, ""); !errors.Is(err, ErrBadInterval) {
		t.Errorf("empty interval err = %v", err)
	}
	if _, err := p.Reserve(Nodes(-1), tBase, tEnd, ""); err == nil {
		t.Error("negative amount accepted")
	}
}

func TestPoolIntervalOverlap(t *testing.T) {
	// Reservations on disjoint intervals share capacity.
	p := NewPool("p", Nodes(10))
	if _, err := p.Reserve(Nodes(10), hours(0), hours(2), "a"); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Reserve(Nodes(10), hours(2), hours(4), "b"); err != nil {
		t.Fatalf("back-to-back reservation rejected: %v", err)
	}
	// A reservation spanning both is rejected.
	if _, err := p.Reserve(Nodes(1), hours(1), hours(3), "c"); !errors.Is(err, ErrInsufficientCapacity) {
		t.Fatalf("overlapping reservation err = %v", err)
	}
	// But it fits after hour 4.
	if _, err := p.Reserve(Nodes(10), hours(4), hours(5), "d"); err != nil {
		t.Fatal(err)
	}
}

func TestPoolMinAvailableSeesInteriorPeaks(t *testing.T) {
	// A reservation that begins strictly inside the probe window must be
	// counted even though availability at the window start is high.
	p := NewPool("p", Nodes(10))
	if _, err := p.Reserve(Nodes(8), hours(2), hours(3), ""); err != nil {
		t.Fatal(err)
	}
	// Over [0h, 4h) only 2 nodes are free throughout; over [0h, 2h) all 10.
	if _, err := p.Reserve(Nodes(3), hours(0), hours(4), ""); err == nil {
		t.Fatal("reservation through interior peak accepted")
	}
	if _, err := p.Reserve(Nodes(2), hours(0), hours(4), ""); err != nil {
		t.Fatalf("fitting reservation rejected: %v", err)
	}
	if _, err := p.Reserve(Nodes(8), hours(0), hours(2), ""); err != nil {
		t.Fatalf("reservation ending where the peak begins rejected: %v", err)
	}
}

func TestPoolResize(t *testing.T) {
	p := NewPool("p", Nodes(26))
	r, err := p.Reserve(Nodes(10), tBase, tEnd, "")
	if err != nil {
		t.Fatal(err)
	}
	other, err := p.Reserve(Nodes(10), tBase, tEnd, "")
	if err != nil {
		t.Fatal(err)
	}
	// Grow within remaining capacity (26-10 others = 16 available to r).
	if err := p.Resize(r.ID, Nodes(16)); err != nil {
		t.Fatalf("Resize grow: %v", err)
	}
	if got := p.InUse(tBase); !got.Equal(Nodes(26)) {
		t.Errorf("InUse = %v", got)
	}
	// Growing beyond fails and leaves the amount untouched.
	if err := p.Resize(r.ID, Nodes(17)); !errors.Is(err, ErrInsufficientCapacity) {
		t.Fatalf("Resize over err = %v", err)
	}
	got, err := p.Get(r.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Amount.Equal(Nodes(16)) {
		t.Errorf("amount after failed resize = %v, want 16", got.Amount)
	}
	// Shrink always works.
	if err := p.Resize(other.ID, Nodes(2)); err != nil {
		t.Fatalf("Resize shrink: %v", err)
	}
	if err := p.Resize("nope", Nodes(1)); !errors.Is(err, ErrUnknownReservation) {
		t.Errorf("Resize unknown err = %v", err)
	}
	if err := p.Resize(r.ID, Nodes(-1)); err == nil {
		t.Error("Resize negative accepted")
	}
}

func TestPoolOfflineFailure(t *testing.T) {
	// The §5.6 event: three of the guaranteed pool's processors become
	// inaccessible; existing reservations persist and the pool reports no
	// availability instead of a negative one.
	p := NewPool("G", Nodes(15))
	if _, err := p.Reserve(Nodes(14), tBase, tEnd, ""); err != nil {
		t.Fatal(err)
	}
	p.SetOffline(Nodes(3))
	if got := p.Online(); !got.Equal(Nodes(12)) {
		t.Errorf("Online = %v, want 12", got)
	}
	if got := p.Available(tBase); !got.IsZero() {
		t.Errorf("Available = %v, want 0 (clamped)", got)
	}
	// Recovery at t3.
	p.SetOffline(Capacity{})
	if got := p.Available(tBase); !got.Equal(Nodes(1)) {
		t.Errorf("Available after recovery = %v, want 1", got)
	}
}

func TestPoolGC(t *testing.T) {
	p := NewPool("p", Nodes(10))
	if _, err := p.Reserve(Nodes(1), hours(0), hours(1), ""); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Reserve(Nodes(1), hours(0), hours(5), ""); err != nil {
		t.Fatal(err)
	}
	if n := p.GC(hours(2)); n != 1 {
		t.Fatalf("GC = %d, want 1", n)
	}
	if len(p.Reservations()) != 1 {
		t.Fatalf("Reservations = %d, want 1", len(p.Reservations()))
	}
}

func TestPoolReservationsSortedAndCopied(t *testing.T) {
	p := NewPool("p", Nodes(10))
	for i := 0; i < 5; i++ {
		if _, err := p.Reserve(Nodes(1), tBase, tEnd, ""); err != nil {
			t.Fatal(err)
		}
	}
	rs := p.Reservations()
	for i := 1; i < len(rs); i++ {
		if rs[i-1].ID >= rs[i].ID {
			t.Fatalf("not sorted: %v before %v", rs[i-1].ID, rs[i].ID)
		}
	}
	// Mutating the returned copy must not affect the pool.
	rs[0].Amount = Nodes(99)
	got, err := p.Get(rs[0].ID)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Amount.Equal(Nodes(1)) {
		t.Fatal("caller mutation leaked into pool")
	}
}

// Property: under random reserve/release/resize traffic the pool never
// admits a state where in-use exceeds online capacity at any reservation
// boundary (the pool's core invariant).
func TestPoolNeverOversubscribedProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	p := NewPool("p", Capacity{CPU: 20, MemoryMB: 4096, DiskGB: 100, BandwidthMbps: 1000})
	var held []ReservationID
	for step := 0; step < 3000; step++ {
		switch rng.Intn(4) {
		case 0, 1: // reserve
			start := hours(rng.Intn(20))
			end := start.Add(time.Duration(1+rng.Intn(10)) * time.Hour)
			amount := Capacity{
				CPU:           float64(rng.Intn(10)),
				MemoryMB:      float64(rng.Intn(2048)),
				DiskGB:        float64(rng.Intn(50)),
				BandwidthMbps: float64(rng.Intn(500)),
			}
			if r, err := p.Reserve(amount, start, end, ""); err == nil {
				held = append(held, r.ID)
			}
		case 2: // release
			if len(held) > 0 {
				i := rng.Intn(len(held))
				if err := p.Release(held[i]); err != nil {
					t.Fatalf("release held id: %v", err)
				}
				held = append(held[:i], held[i+1:]...)
			}
		case 3: // resize
			if len(held) > 0 {
				i := rng.Intn(len(held))
				_ = p.Resize(held[i], Nodes(float64(rng.Intn(15))))
			}
		}
		// Invariant check at every boundary.
		for _, r := range p.Reservations() {
			for _, edge := range []time.Time{r.Start, r.End.Add(-time.Nanosecond)} {
				if use := p.InUse(edge); !use.FitsIn(p.Online()) {
					t.Fatalf("step %d: oversubscribed at %v: in use %v > online %v",
						step, edge, use, p.Online())
				}
			}
		}
	}
}
