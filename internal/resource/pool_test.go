package resource

import (
	"errors"
	"math/rand"
	"strconv"
	"strings"
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
	if got := p.InUse(tBase); !got.Equal(Nodes(26)) {
		t.Errorf("InUse after failed resize = %v, want 26 (16 + 10)", got)
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
	if got := p.Available(tBase); !got.IsZero() {
		t.Errorf("Available = %v, want 0 (clamped)", got)
	}
	// Recovery at t3.
	p.SetOffline(Capacity{})
	if got := p.Available(tBase); !got.Equal(Nodes(1)) {
		t.Errorf("Available after recovery = %v, want 1", got)
	}
}

func TestPoolReserveReturnsCopy(t *testing.T) {
	p := NewPool("p", Nodes(10))
	var rs []*Reservation
	for i := 0; i < 5; i++ {
		r, err := p.Reserve(Nodes(1), tBase, tEnd, "")
		if err != nil {
			t.Fatal(err)
		}
		rs = append(rs, r)
	}
	for i, want := range []ReservationID{"p-1", "p-2", "p-3", "p-4", "p-5"} {
		if rs[i].ID != want {
			t.Errorf("reservation %d has ID %q, want %q", i, rs[i].ID, want)
		}
	}
	// Mutating the returned copy must not affect the pool.
	rs[0].Amount = Nodes(99)
	rs[0].End = tBase
	if got := p.InUse(tBase); !got.Equal(Nodes(5)) {
		t.Fatalf("caller mutation leaked into pool: InUse = %v, want 5", got)
	}
	if err := p.Release(rs[0].ID); err != nil {
		t.Fatalf("Release after caller mutation: %v", err)
	}
	checkProfile(t, p)
}

// Property: under random reserve/release/resize traffic the pool never
// admits a state where in-use exceeds online capacity at any reservation
// boundary (the pool's core invariant).
func TestPoolNeverOversubscribedProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	p := NewPool("p", Capacity{CPU: 20, MemoryMB: 4096, DiskGB: 100, BandwidthMbps: 1000})
	var held []*Reservation
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
				held = append(held, r)
			}
		case 2: // release
			if len(held) > 0 {
				i := rng.Intn(len(held))
				if err := p.Release(held[i].ID); err != nil {
					t.Fatalf("release held id: %v", err)
				}
				held = append(held[:i], held[i+1:]...)
			}
		case 3: // resize
			if len(held) > 0 {
				i := rng.Intn(len(held))
				_ = p.Resize(held[i].ID, Nodes(float64(rng.Intn(15))))
			}
		}
		// Invariant check at every boundary.
		for _, r := range held {
			for _, edge := range []time.Time{r.Start, r.End.Add(-time.Nanosecond)} {
				if use := p.InUse(edge); !use.FitsIn(p.Total()) {
					t.Fatalf("step %d: oversubscribed at %v: in use %v > total %v",
						step, edge, use, p.Total())
				}
			}
		}
	}
}

// inUseScan and minAvailableScan are the pool's former admission check,
// kept as the reference the profile is tested against: availability is
// evaluated at every reservation boundary inside the window, each by a
// scan of every reservation. Quadratic, order of addition left to the map,
// and obviously the definition.
func inUseScan(p *Pool, t time.Time) Capacity {
	var used Capacity
	for _, r := range p.res {
		if !r.Start.After(t) && r.End.After(t) {
			used = used.Add(r.Amount)
		}
	}
	return used
}

func minAvailableScan(p *Pool, start, end time.Time) Capacity {
	online := p.total.Sub(p.offline)
	min := online.Sub(inUseScan(p, start)).ClampMin(Capacity{})
	for _, r := range p.res {
		for _, edge := range [2]time.Time{r.Start, r.End} {
			if edge.After(start) && edge.Before(end) {
				avail := online.Sub(inUseScan(p, edge)).ClampMin(Capacity{})
				min = min.Min(avail)
			}
		}
	}
	return min
}

// checkProfile is the structural invariant of the edge list: strictly
// sorted by (instant, issue sequence), every edge at the boundary it stands
// for of a reservation the pool holds, two edges per reservation. Strict
// order rules out a repeated boundary, so the count makes it exactly a
// start and an end each.
func checkProfile(t testing.TB, p *Pool) {
	t.Helper()
	if len(p.edges) != 2*len(p.res) {
		t.Fatalf("profile holds %d edges for %d reservations", len(p.edges), len(p.res))
	}
	seq := func(r *Reservation) int { // the pool issues "<name>-<sequence>"
		n, err := strconv.Atoi(strings.TrimPrefix(string(r.ID), p.name+"-"))
		if err != nil {
			t.Fatalf("reservation ID %q: %v", r.ID, err)
		}
		return n
	}
	for i, e := range p.edges {
		if i > 0 {
			prev := p.edges[i-1]
			if c := prev.at.Compare(e.at); c > 0 || c == 0 && seq(prev.r) >= seq(e.r) {
				t.Fatalf("edges %d and %d out of order: %s at %v, then %s at %v",
					i-1, i, prev.r.ID, prev.at, e.r.ID, e.at)
			}
		}
		if p.res[e.r.ID] != e.r {
			t.Fatalf("edge %d points at %s, which the pool does not hold", i, e.r.ID)
		}
		at := e.r.Start
		if e.end {
			at = e.r.End
		}
		if !e.at.Equal(at) {
			t.Fatalf("edge %d (end=%v) is at %v, not a boundary of %s [%v, %v)",
				i, e.end, e.at, e.r.ID, e.r.Start, e.r.End)
		}
	}
}

// profileDiff drives one pool through Reserve / Resize / Release /
// SetOffline and holds every decision and every availability the profile
// reports to the scan's. Times sit on a half-hour grid over one day so
// boundaries coincide and windows abut; amounts are integers, thirds and
// tenths, zero included, so sums are not exact in binary but every true
// comparison is either a tie or a thirtieth apart — far from Epsilon.
type profileDiff struct {
	t     testing.TB
	p     *Pool
	intn  func(n int) int // the operation stream: an rng, or a fuzzer's bytes
	held  []*Reservation
	cover map[string]int
}

// maxHeld bounds the population: zero-amount reservations always fit, and
// the scan is quadratic in what stands.
const maxHeld = 64

var diffTotal = Capacity{CPU: 10, MemoryMB: 64, DiskGB: 20, BandwidthMbps: 100}

func newProfileDiff(t testing.TB, intn func(int) int) *profileDiff {
	return &profileDiff{t: t, p: NewPool("diff", diffTotal), intn: intn, cover: map[string]int{}}
}

func (d *profileDiff) instant() time.Time {
	return tBase.Add(time.Duration(d.intn(48)) * 30 * time.Minute)
}

func (d *profileDiff) window() (start, end time.Time) {
	start = d.instant()
	return start, start.Add(time.Duration(1+d.intn(16)) * 30 * time.Minute)
}

func (d *profileDiff) quantity(scale float64) float64 {
	switch n := float64(d.intn(5)); d.intn(4) {
	case 0:
		return 0
	case 1:
		return n * scale
	case 2:
		return n * scale / 3
	default:
		return n * scale * 0.1
	}
}

func (d *profileDiff) amount() Capacity {
	if d.intn(12) == 0 {
		return Capacity{}
	}
	return Capacity{
		CPU:           d.quantity(1),
		MemoryMB:      d.quantity(8),
		DiskGB:        d.quantity(2),
		BandwidthMbps: d.quantity(10),
	}
}

// availableTo is the scan's answer for a resize of r: everything but r
// over r's own window, the way Resize once asked it.
func (d *profileDiff) availableTo(r *Reservation) Capacity {
	live := d.p.res[r.ID]
	old := live.Amount
	live.Amount = Capacity{}
	avail := minAvailableScan(d.p, r.Start, r.End)
	live.Amount = old
	return avail
}

func (d *profileDiff) step() {
	p, t := d.p, d.t
	switch op := d.intn(16); {
	case op < 6 && len(d.held) < maxHeld: // reserve
		start, end := d.window()
		amount := d.amount()
		for _, r := range p.res {
			if r.End.Equal(start) {
				d.cover["window starts where a reservation ends"]++
			}
			if r.Start.Equal(end) {
				d.cover["window ends where a reservation starts"]++
			}
		}
		want := amount.FitsIn(minAvailableScan(p, start, end))
		r, err := p.Reserve(amount, start, end, "")
		if (err == nil) != want {
			t.Fatalf("Reserve(%v, %v, %v): err %v, scan admits = %v", amount, start, end, err, want)
		}
		if err != nil {
			if !errors.Is(err, ErrInsufficientCapacity) {
				t.Fatalf("Reserve refused with %v", err)
			}
			return
		}
		for _, h := range d.held {
			if h.Start.Equal(r.Start) || h.End.Equal(r.End) {
				d.cover["coincident boundary"]++
			}
		}
		if amount.IsZero() {
			d.cover["zero amount"]++
		}
		if r.Start.After(tBase) { // tBase is the earliest instant anything asks about
			d.cover["advance reservation"]++
		}
		d.held = append(d.held, r)
	case op < 10 && len(d.held) > 0: // resize
		r := d.held[d.intn(len(d.held))]
		room := d.availableTo(r)
		var amount Capacity
		switch d.intn(4) {
		case 0:
			amount = d.amount()
		case 1: // exactly what is left: r becomes the bottleneck
			amount = room
		case 2: // a tenth over
			amount = room.Add(Capacity{CPU: 0.1})
		default: // shrink
			amount = p.res[r.ID].Amount.Scale(1.0 / 3)
		}
		old := p.res[r.ID].Amount
		if full := minAvailableScan(p, r.Start, r.End); !old.IsZero() && full.CPU <= Epsilon {
			if amount.CPU > old.CPU {
				d.cover["grow the bottleneck"]++
			} else if amount.CPU < old.CPU {
				d.cover["shrink the bottleneck"]++
			}
		}
		want := amount.FitsIn(room)
		err := p.Resize(r.ID, amount)
		if (err == nil) != want {
			t.Fatalf("Resize(%s, %v): err %v, scan admits = %v (room %v)", r.ID, amount, err, want, room)
		}
		if got := p.res[r.ID].Amount; err != nil && got != old {
			t.Fatalf("refused Resize changed %s from %v to %v", r.ID, old, got)
		}
	case op < 14 && len(d.held) > 0: // release
		i := d.intn(len(d.held))
		if err := p.Release(d.held[i].ID); err != nil {
			t.Fatalf("Release(%s): %v", d.held[i].ID, err)
		}
		d.held = append(d.held[:i], d.held[i+1:]...)
	default: // fail or recover part of the pool
		p.SetOffline(Capacity{CPU: float64(d.intn(8)), MemoryMB: d.quantity(8), BandwidthMbps: d.quantity(10)})
	}
	checkProfile(t, p)
	at := d.instant()
	if d.intn(2) == 0 {
		at = at.Add(time.Minute) // between grid points too
	}
	use, want := p.InUse(at), inUseScan(p, at)
	if !use.Equal(want) {
		t.Fatalf("InUse(%v) = %v, scan says %v", at, use, want)
	}
	if !use.FitsIn(p.total.Sub(p.offline)) {
		d.cover["oversubscribed after SetOffline"]++
	}
	if got, want := p.Available(at), minAvailableScan(p, at, at.Add(time.Nanosecond)); !got.Equal(want) {
		t.Fatalf("Available(%v) = %v, scan says %v", at, got, want)
	}
	start, end := d.window()
	if got, want := p.minAvailableLocked(start, end, nil), minAvailableScan(p, start, end); !got.Equal(want) {
		t.Fatalf("minAvailable[%v, %v) = %v, scan says %v", start, end, got, want)
	}
}

// drain releases everything still held and checks nothing is left behind.
func (d *profileDiff) drain() {
	for _, r := range d.held {
		if err := d.p.Release(r.ID); err != nil {
			d.t.Fatalf("Release(%s): %v", r.ID, err)
		}
		checkProfile(d.t, d.p)
	}
	if len(d.p.edges) != 0 || len(d.p.res) != 0 {
		d.t.Fatalf("after the last Release the pool holds %d edges, %d reservations", len(d.p.edges), len(d.p.res))
	}
	if use := d.p.InUse(tBase.Add(6 * time.Hour)); use != (Capacity{}) {
		d.t.Fatalf("empty pool reports %v in use", use)
	}
}

// TestPoolProfileMatchesScan is the differential test of the availability
// profile: over 20 seeds of 10 000 operations each, every admit-or-refuse
// decision and every reported availability equals the scan's, and the edge
// list keeps its shape after every step.
func TestPoolProfileMatchesScan(t *testing.T) {
	seeds, steps := 20, 10000
	if testing.Short() {
		seeds = 4
	}
	cover := map[string]int{}
	for seed := 1; seed <= seeds; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		d := newProfileDiff(t, rng.Intn)
		for i := 0; i < steps; i++ {
			d.step()
		}
		d.drain()
		for k, n := range d.cover {
			cover[k] += n
		}
	}
	for _, k := range []string{
		"coincident boundary",
		"window starts where a reservation ends",
		"window ends where a reservation starts",
		"zero amount",
		"advance reservation",
		"grow the bottleneck",
		"shrink the bottleneck",
		"oversubscribed after SetOffline",
	} {
		if cover[k] == 0 {
			t.Errorf("the generator never produced: %s", k)
		}
		t.Logf("%-40s %d", k, cover[k])
	}
}

// FuzzPoolProfile feeds the same differential driver from a byte stream:
// one byte per draw, the run ends when the bytes do (or after 4 KiB — the
// mutator grows inputs, and a step costs a quadratic scan).
func FuzzPoolProfile(f *testing.F) {
	f.Add([]byte{0, 0, 3, 1, 2, 1, 1, 1, 0, 0, 0, 1, 0, 2, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		data = data[:min(len(data), 4096)]
		d := newProfileDiff(t, func(n int) int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b) % n
		})
		for len(data) > 0 {
			d.step()
		}
		d.drain()
	})
}

// TestPoolAllocGate holds the pool's hot path to what it must allocate:
// at 512 standing reservations laid out as bench/'s probe lays them (each
// starts a second after the last, all overlap), a Reserve + Release is the
// Reservation, the copy handed back and the ID string, and a Resize
// nothing — no per-call sort, no scratch slice, no boxed argument on the
// way to an error that is not returned.
func TestPoolAllocGate(t *testing.T) {
	const standing, hold = 512, 1000 * time.Hour
	p := NewPool("gate", Capacity{CPU: 1 << 12, MemoryMB: 1 << 22, DiskGB: 1 << 16})
	amount := Capacity{CPU: 2, MemoryMB: 512, DiskGB: 10}
	var last *Reservation
	for i := 0; i < standing; i++ {
		start := tBase.Add(time.Duration(i) * time.Second)
		r, err := p.Reserve(amount, start, start.Add(hold), "standing")
		if err != nil {
			t.Fatal(err)
		}
		last = r
	}
	start := tBase.Add(standing * time.Second)
	if allocs := testing.AllocsPerRun(200, func() {
		r, err := p.Reserve(amount, start, start.Add(hold), "probe")
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Release(r.ID); err != nil {
			t.Fatal(err)
		}
	}); allocs > 3 {
		t.Errorf("Reserve + Release at %d standing reservations allocates %.0f objects, gate is 3", standing, allocs)
	}
	grow := false
	if allocs := testing.AllocsPerRun(200, func() {
		grow = !grow
		next := amount
		if grow {
			next = amount.Scale(2)
		}
		if err := p.Resize(last.ID, next); err != nil {
			t.Fatal(err)
		}
	}); allocs > 0 {
		t.Errorf("Resize at %d standing reservations allocates %.0f objects, gate is 0", standing, allocs)
	}
	checkProfile(t, p)
}
