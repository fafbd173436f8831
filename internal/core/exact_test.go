package core

// The exact guaranteed total: the fix128 unit against math/big, its
// order independence, the allocator's running total against a fresh
// sorted sum, and the per-layer cost of a grant + release.

import (
	"encoding/binary"
	"math"
	"math/big"
	"math/rand"
	"slices"
	"strconv"
	"testing"

	"gqosm/internal/resource"
)

// bigOf is x's exact value.
func bigOf(x fix128) *big.Float {
	n := new(big.Int).SetUint64(x.hi)
	n.Lsh(n, 64).Or(n, new(big.Int).SetUint64(x.lo))
	if int64(x.hi) < 0 {
		n.Sub(n, new(big.Int).Lsh(big.NewInt(1), 128))
	}
	f := new(big.Float).SetPrec(200).SetInt(n)
	return f.SetMantExp(f, -64)
}

// TestFix128RoundsToNearest holds float against math/big's
// round-to-nearest-even on random 128-bit values of every magnitude, and
// toFix128 against the exact value of the float it converts.
func TestFix128RoundsToNearest(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	for i := 0; i < 20000; i++ {
		x := fix128{hi: rng.Uint64() >> uint(rng.Intn(65)), lo: rng.Uint64() >> uint(rng.Intn(65))}
		if rng.Intn(2) == 0 {
			x = fix128{}.sub(x)
		}
		want, _ := bigOf(x).Float64()
		if got := x.float(); got != want {
			t.Fatalf("%#v.float() = %v, math/big says %v", x, got, want)
		}
	}
	for i := 0; i < 20000; i++ {
		v := math.Ldexp(1+rng.Float64(), rng.Intn(64)-12) // [2⁻¹², 2⁵²)
		if rng.Intn(2) == 0 {
			v = -v
		}
		if got, _ := bigOf(toFix128(v)).Float64(); got != v {
			t.Fatalf("toFix128(%v) holds %v", v, got)
		}
	}
}

// TestFix128OutOfDomain: NaN, ±Inf and magnitudes past the unit's range
// convert without panicking, to a value that cancels when subtracted.
func TestFix128OutOfDomain(t *testing.T) {
	for _, tc := range []struct {
		v, want float64
	}{
		{math.NaN(), 0},
		{math.Inf(1), fixLimit},
		{math.Inf(-1), -fixLimit},
		{1e300, fixLimit},
		{-1e300, -fixLimit},
		{0x1p52, fixLimit},
		{0x1p52 - 1, 0x1p52 - 1},
		{math.Copysign(0, -1), 0},
		{5e-324, 0},  // below 2⁻⁶⁴: truncated
		{-1e-300, 0}, // truncation is toward zero
		{0x1p-64, 0x1p-64},
	} {
		x := toFix128(tc.v)
		if got := x.float(); got != tc.want {
			t.Errorf("toFix128(%v).float() = %v, want %v", tc.v, got, tc.want)
		}
		base := toFix128(128.7)
		if got := base.add(x).sub(x); got != base {
			t.Errorf("adding and subtracting toFix128(%v) moved the total to %#v", tc.v, got)
		}
	}
}

// FuzzExactSumOrder: any permutation of the terms, and any interleaving
// of adds and subtracts that ends at the same multiset, gives identical
// bits; every term in [2⁻¹², 2⁵²) round-trips exactly.
func FuzzExactSumOrder(f *testing.F) {
	seed := func(vs ...float64) []byte {
		var b []byte
		for _, v := range vs {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
		return b
	}
	f.Add(int64(1), seed(0.1, 1.0/3, 128.7, 1e-7))
	f.Add(int64(2), seed(0.1, 0.2, 0.3, 1e15, -1e15))
	f.Add(int64(3), seed(math.NaN(), math.Inf(1), 0x1p-12, 0x1p52-1))
	f.Fuzz(func(t *testing.T, seed int64, raw []byte) {
		var terms []float64
		for ; len(raw) >= 8; raw = raw[8:] {
			terms = append(terms, math.Float64frombits(binary.LittleEndian.Uint64(raw)))
		}
		var inOrder fix128
		for _, v := range terms {
			x := toFix128(v)
			inOrder = inOrder.add(x)
			if a := math.Abs(v); a >= 0x1p-12 && a < 0x1p52 && x.float() != v {
				t.Fatalf("toFix128(%v) reads back %v", v, x.float())
			}
		}
		// Add the terms in a shuffled order, interleaved with transient
		// terms (the same values again) that are taken out before the end.
		rng := rand.New(rand.NewSource(seed))
		order := rng.Perm(len(terms))
		var shuffled fix128
		var held []float64
		for _, i := range order {
			shuffled = shuffled.add(toFix128(terms[i]))
			if rng.Intn(2) == 0 {
				v := terms[rng.Intn(len(terms))]
				shuffled = shuffled.add(toFix128(v))
				held = append(held, v)
			}
			if len(held) > 0 && rng.Intn(3) == 0 {
				j := rng.Intn(len(held))
				shuffled = shuffled.sub(toFix128(held[j]))
				held = slices.Delete(held, j, j+1)
			}
		}
		for _, v := range held {
			shuffled = shuffled.sub(toFix128(v))
		}
		if shuffled != inOrder {
			t.Fatalf("shuffled total %#v, in-order total %#v", shuffled, inOrder)
		}
		if a, b := shuffled.float(), inOrder.float(); math.Float64bits(a) != math.Float64bits(b) {
			t.Fatalf("shuffled total reads %v, in-order %v", a, b)
		}
	})
}

// freshGTotal sums the allocator's grants over the sorted users through
// the same unit.
func freshGTotal(a *Allocator) exactCapacity {
	users := make([]string, 0, len(a.guaranteed))
	for u := range a.guaranteed {
		users = append(users, u)
	}
	slices.Sort(users)
	var sum exactCapacity
	for _, u := range users {
		sum = sum.add(exactOf(a.guaranteed[u]))
	}
	return sum
}

// TestGuaranteedTotalIsExact runs seeded sequences of grants, re-grants,
// releases, SetOffline and ExportAux → Restore round trips with amounts
// no binary fraction holds, and after every step holds the running total
// to a fresh sum over the sorted users, bit for bit, and the demand the
// allocator reads to that total rounded once.
func TestGuaranteedTotalIsExact(t *testing.T) {
	amounts := []float64{0.1, 1.0 / 3, 128.7, 1e-7, 2.5, 7}
	amount := func(rng *rand.Rand) resource.Capacity {
		pick := func() float64 { return amounts[rng.Intn(len(amounts))] * float64(1+rng.Intn(3)) }
		return resource.Capacity{CPU: pick(), MemoryMB: pick(), DiskGB: pick(), BandwidthMbps: pick()}
	}
	plan := CapacityPlan{
		Guaranteed: resource.Capacity{CPU: 2000, MemoryMB: 2000, DiskGB: 2000, BandwidthMbps: 2000},
		Adaptive:   resource.Capacity{CPU: 300, MemoryMB: 300, DiskGB: 300, BandwidthMbps: 300},
		BestEffort: resource.Capacity{CPU: 100, MemoryMB: 100, DiskGB: 100, BandwidthMbps: 100},
	}
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		a, err := NewAllocator(plan)
		if err != nil {
			t.Fatal(err)
		}
		regrants, releases, restores := 0, 0, 0
		for step := 0; step < 3000; step++ {
			user := "g" + strconv.Itoa(rng.Intn(24))
			switch rng.Intn(8) {
			case 0, 1, 2, 3:
				_, held := a.GuaranteedAllocation(user)
				req := amount(rng)
				if _, err := a.AllocateGuaranteed(user, req, req.Scale(0.5)); err == nil && held {
					regrants++
				}
			case 4, 5:
				if a.ReleaseGuaranteed(user) == nil {
					releases++
				}
			case 6:
				a.SetOffline(resource.Nodes(float64(rng.Intn(400)) / 3))
			case 7:
				offline, be, nextSeq := a.ExportAux()
				fresh, err := NewAllocator(plan)
				if err != nil {
					t.Fatal(err)
				}
				fresh.Restore(a.guaranteed, offline, be, nextSeq)
				a = fresh
				restores++
			}
			a.mu.Lock()
			total, demand, want := a.gTotal, a.gDemandLocked(), freshGTotal(a)
			a.mu.Unlock()
			if total != want {
				t.Fatalf("seed %d step %d: running total %+v, fresh sorted sum %+v", seed, step, total, want)
			}
			if d := want.capacity(); demand != d {
				t.Fatalf("seed %d step %d: demand %v, total rounded once %v", seed, step, demand, d)
			}
		}
		if regrants == 0 || releases == 0 || restores == 0 {
			t.Fatalf("seed %d: %d re-grants, %d releases, %d restores — the generator exercises nothing", seed, regrants, releases, restores)
		}
	}
}

// grantReleaseAllocator is an allocator holding standing guaranteed
// grants of one node each, with room for a probe on top.
func grantReleaseAllocator(tb testing.TB, standing int) *Allocator {
	tb.Helper()
	a, err := NewAllocator(CapacityPlan{
		Guaranteed: resource.Nodes(float64(standing + 8)),
		Adaptive:   resource.Nodes(4),
		BestEffort: resource.Nodes(4),
	})
	if err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < standing; i++ {
		if _, err := a.AllocateGuaranteed("standing-"+strconv.Itoa(i), resource.Nodes(1), resource.Nodes(1)); err != nil {
			tb.Fatal(err)
		}
	}
	return a
}

// grantRelease is one probe admission and its release.
func grantRelease(tb testing.TB, a *Allocator) {
	if _, err := a.AllocateGuaranteed("probe", resource.Nodes(2), resource.Nodes(1)); err != nil {
		tb.Fatal(err)
	}
	if err := a.ReleaseGuaranteed("probe"); err != nil {
		tb.Fatal(err)
	}
}

// BenchmarkGrantRelease times a guaranteed grant + release against 8, 64
// and 512 standing grants. Guaranteed demand is a field read, so the
// three should cost the same.
func BenchmarkGrantRelease(b *testing.B) {
	for _, standing := range []int{8, 64, 512} {
		b.Run(strconv.Itoa(standing), func(b *testing.B) {
			a := grantReleaseAllocator(b, standing)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				grantRelease(b, a)
			}
		})
	}
}

// TestGrantReleaseAllocGate holds a grant + release at 512 standing
// grants to no allocation: the running total adds none to the admission
// path, and neither call publishes anything.
func TestGrantReleaseAllocGate(t *testing.T) {
	if RaceEnabled() {
		t.Skip("allocation counts are not exact under -race")
	}
	a := grantReleaseAllocator(t, 512)
	const gate = 0 // measured 0 (go1.24); 2 while each call published the allocator's read view (the running total added none to that)
	if allocs := testing.AllocsPerRun(200, func() { grantRelease(t, a) }); allocs != gate {
		t.Errorf("grant + release at 512 standing grants allocates %.0f objects, want %d", allocs, gate)
	}
}
