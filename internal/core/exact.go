package core

import (
	"math"
	"math/bits"

	"gqosm/internal/resource"
)

// fix128 is a 128-bit two's-complement fixed-point number with 64
// fraction bits: its value is (hi·2⁶⁴ + lo) / 2⁶⁴, hi read as signed.
// Add and sub are integer arithmetic, exact, associative and
// commutative, so a running total of fix128 terms depends only on the
// multiset of terms it holds, never on the order they were added or
// removed in.
type fix128 struct{ hi, lo uint64 }

func (x fix128) add(y fix128) fix128 {
	lo, carry := bits.Add64(x.lo, y.lo, 0)
	hi, _ := bits.Add64(x.hi, y.hi, carry)
	return fix128{hi, lo}
}

func (x fix128) sub(y fix128) fix128 {
	lo, borrow := bits.Sub64(x.lo, y.lo, 0)
	hi, _ := bits.Sub64(x.hi, y.hi, borrow)
	return fix128{hi, lo}
}

// fixLimit bounds the magnitudes toFix128 converts: 2⁵², the first power
// of two at which a float64 holds no fraction bits. CapacityPlan.Validate
// keeps every grant, and with it Σ c(u,t), below it: far inside the
// signed 64-bit integer part.
const fixLimit = 1 << 52

// toFix128 converts v. A magnitude in [2⁻¹², 2⁵²) converts exactly (its
// 53-bit mantissa lands at or above the 2⁻⁶⁴ bit); a smaller one is
// truncated toward zero. Out of domain, NaN converts to zero and a
// magnitude of 2⁵² or more, ±Inf included, saturates at ±2⁵². The result
// is a function of v alone either way, so adding a term and later
// subtracting the same term cancels exactly.
func toFix128(v float64) fix128 {
	switch {
	case math.IsNaN(v):
		return fix128{}
	case v >= fixLimit:
		return fix128{hi: fixLimit}
	case v <= -fixLimit:
		return fix128{}.sub(fix128{hi: fixLimit})
	}
	frac, exp := math.Frexp(math.Abs(v))
	m := uint64(frac * (1 << 53)) // |v| = m·2^(exp−53), m < 2⁵³
	// |v|·2⁶⁴ = m·2^(exp+11); exp ≤ 52 here, so the shift is at most 63.
	var x fix128
	if s := exp + 11; s >= 0 {
		x = fix128{hi: m >> uint(64-s), lo: m << uint(s)}
	} else {
		x = fix128{lo: m >> uint(-s)}
	}
	if v < 0 {
		x = fix128{}.sub(x)
	}
	return x
}

// float returns the float64 nearest x, ties to even. It is exact
// whenever x is a float64, so a total of terms that toFix128 took exactly
// reads back as their true sum whenever that sum is a float64.
func (x fix128) float() float64 {
	neg := int64(x.hi) < 0
	if neg {
		x = fix128{}.sub(x)
	}
	var f float64
	if x.hi == 0 {
		f = math.Ldexp(float64(x.lo), -64)
	} else {
		// The top 64 significant bits, with every bit shifted out folded
		// into bit 0 (below the rounding bit) so the conversion still
		// rounds to nearest.
		n := bits.Len64(x.hi)
		top := x.hi<<uint(64-n) | x.lo>>uint(n)
		if x.lo<<uint(64-n) != 0 {
			top |= 1
		}
		f = math.Ldexp(float64(top), n-64)
	}
	if neg {
		f = -f
	}
	return f
}

// exactCapacity is a resource.Capacity with every dimension held as a
// fix128: the allocator's running total of guaranteed demand.
type exactCapacity struct{ cpu, mem, disk, bw fix128 }

func exactOf(c resource.Capacity) exactCapacity {
	return exactCapacity{toFix128(c.CPU), toFix128(c.MemoryMB), toFix128(c.DiskGB), toFix128(c.BandwidthMbps)}
}

func (e exactCapacity) add(o exactCapacity) exactCapacity {
	return exactCapacity{e.cpu.add(o.cpu), e.mem.add(o.mem), e.disk.add(o.disk), e.bw.add(o.bw)}
}

func (e exactCapacity) sub(o exactCapacity) exactCapacity {
	return exactCapacity{e.cpu.sub(o.cpu), e.mem.sub(o.mem), e.disk.sub(o.disk), e.bw.sub(o.bw)}
}

// capacity rounds every dimension to its nearest float64.
func (e exactCapacity) capacity() resource.Capacity {
	return resource.Capacity{CPU: e.cpu.float(), MemoryMB: e.mem.float(), DiskGB: e.disk.float(), BandwidthMbps: e.bw.float()}
}
