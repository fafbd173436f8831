package resource

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func capFromInts(a, b, c, d int) Capacity {
	return Capacity{
		CPU:           float64(a % 1000),
		MemoryMB:      float64(b % 100000),
		DiskGB:        float64(c % 10000),
		BandwidthMbps: float64(d % 10000),
	}
}

func TestCapacityGetWith(t *testing.T) {
	var c Capacity
	for i, k := range Kinds {
		c = c.With(k, float64(i+1))
	}
	for i, k := range Kinds {
		if got := c.Get(k); got != float64(i+1) {
			t.Errorf("Get(%v) = %g, want %d", k, got, i+1)
		}
	}
	if got := c.Get(Kind(99)); got != 0 {
		t.Errorf("Get(unknown) = %g, want 0", got)
	}
}

func TestCapacityArithmetic(t *testing.T) {
	a := Capacity{CPU: 10, MemoryMB: 2048, DiskGB: 15, BandwidthMbps: 622}
	b := Capacity{CPU: 4, MemoryMB: 48, BandwidthMbps: 45}

	sum := a.Add(b)
	want := Capacity{CPU: 14, MemoryMB: 2096, DiskGB: 15, BandwidthMbps: 667}
	if !sum.Equal(want) {
		t.Errorf("Add = %v, want %v", sum, want)
	}
	if diff := sum.Sub(b); !diff.Equal(a) {
		t.Errorf("Sub = %v, want %v", diff, a)
	}
	if sc := b.Scale(2); !sc.Equal(Capacity{CPU: 8, MemoryMB: 96, BandwidthMbps: 90}) {
		t.Errorf("Scale = %v", sc)
	}
}

func TestCapacityFitsIn(t *testing.T) {
	tests := []struct {
		name string
		c, o Capacity
		want bool
	}{
		{"empty fits empty", Capacity{}, Capacity{}, true},
		{"smaller fits", Nodes(4), Nodes(10), true},
		{"equal fits", Nodes(10), Nodes(10), true},
		{"larger does not", Nodes(11), Nodes(10), false},
		{"one dimension over", Capacity{CPU: 1, MemoryMB: 64}, Capacity{CPU: 4, MemoryMB: 32}, false},
		{"within epsilon", Nodes(10 + Epsilon/2), Nodes(10), true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.c.FitsIn(tt.o); got != tt.want {
				t.Errorf("FitsIn = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestCapacityMinMaxClamp(t *testing.T) {
	a := Capacity{CPU: 10, MemoryMB: 100}
	b := Capacity{CPU: 5, MemoryMB: 200}
	if got := a.Min(b); !got.Equal(Capacity{CPU: 5, MemoryMB: 100}) {
		t.Errorf("Min = %v", got)
	}
	if got := a.Max(b); !got.Equal(Capacity{CPU: 10, MemoryMB: 200}) {
		t.Errorf("Max = %v", got)
	}
	neg := Capacity{CPU: -3, MemoryMB: 7}
	if got := neg.ClampMin(Capacity{}); !got.Equal(Capacity{MemoryMB: 7}) {
		t.Errorf("ClampMin = %v", got)
	}
}

func TestCapacityPredicates(t *testing.T) {
	if !(Capacity{}).IsZero() {
		t.Error("zero capacity reported non-zero")
	}
	if (Nodes(1)).IsZero() {
		t.Error("non-zero capacity reported zero")
	}
	if !(Nodes(1)).IsNonNegative() {
		t.Error("positive capacity reported negative")
	}
	if (Capacity{DiskGB: -1}).IsNonNegative() {
		t.Error("negative capacity reported non-negative")
	}
}

func TestCapacityString(t *testing.T) {
	if got := (Capacity{}).String(); got != "empty" {
		t.Errorf("empty String = %q", got)
	}
	s := Capacity{CPU: 10, MemoryMB: 2048, DiskGB: 15}.String()
	for _, want := range []string{"cpu=10", "memory-mb=2048", "disk-gb=15"} {
		if !strings.Contains(s, want) {
			t.Errorf("String = %q, missing %q", s, want)
		}
	}
	if strings.Contains(s, "bandwidth") {
		t.Errorf("String = %q, zero dimension should be omitted", s)
	}
}

// capacityStringFmt is the rendering Capacity.String had before it
// appended with strconv: one fmt.Sprintf("%s=%g") per non-zero dimension,
// joined by spaces. FuzzCapacityString holds String to it byte for byte.
func capacityStringFmt(c Capacity) string {
	var parts []string
	for _, k := range Kinds {
		if v := c.Get(k); math.Abs(v) > Epsilon {
			parts = append(parts, fmt.Sprintf("%s=%g", k, v))
		}
	}
	if len(parts) == 0 {
		return "empty"
	}
	return strings.Join(parts, " ")
}

// FuzzCapacityString checks the appended rendering, alone and onto a
// buffer, against the fmt one.
// Grow the corpus with `go test -fuzz=FuzzCapacityString ./internal/resource`.
func FuzzCapacityString(f *testing.F) {
	for _, c := range []Capacity{
		{},
		{CPU: math.Inf(1), MemoryMB: math.Inf(-1)},
		{CPU: math.NaN(), DiskGB: 1e21, BandwidthMbps: 1e20},
		{CPU: 1e-10, MemoryMB: -1e-10, DiskGB: 1e-5, BandwidthMbps: 1e-4},
		{CPU: -3, MemoryMB: -2048.5, DiskGB: -0.1},
		{CPU: 10, MemoryMB: 2048, DiskGB: 15, BandwidthMbps: 622},
		{CPU: 0.1 + 0.2, MemoryMB: 1.0 / 3, DiskGB: math.MaxFloat64, BandwidthMbps: math.SmallestNonzeroFloat64},
		{CPU: 123456, MemoryMB: 1234567, DiskGB: 123456789012345678},
	} {
		f.Add(c.CPU, c.MemoryMB, c.DiskGB, c.BandwidthMbps)
	}
	f.Fuzz(func(t *testing.T, cpu, mem, disk, bw float64) {
		c := Capacity{CPU: cpu, MemoryMB: mem, DiskGB: disk, BandwidthMbps: bw}
		want := capacityStringFmt(c)
		if got := c.String(); got != want {
			t.Fatalf("String of %#v = %q, fmt renders %q", c, got, want)
		}
		if got := string(c.AppendText([]byte("x "))); got != "x "+want {
			t.Fatalf("AppendText of %#v onto %q = %q, want %q", c, "x ", got, "x "+want)
		}
	})
}

func TestKindStringUnit(t *testing.T) {
	tests := []struct {
		k          Kind
		name, unit string
	}{
		{CPU, "cpu", "nodes"},
		{MemoryMB, "memory-mb", "MB"},
		{DiskGB, "disk-gb", "GB"},
		{BandwidthMbps, "bandwidth-mbps", "Mbps"},
	}
	for _, tt := range tests {
		if tt.k.String() != tt.name {
			t.Errorf("%v.String() = %q, want %q", tt.k, tt.k.String(), tt.name)
		}
		if tt.k.Unit() != tt.unit {
			t.Errorf("%v.Unit() = %q, want %q", tt.k, tt.k.Unit(), tt.unit)
		}
	}
	if got := Kind(42).String(); got != "kind(42)" {
		t.Errorf("unknown Kind String = %q", got)
	}
	if got := Kind(42).Unit(); got != "" {
		t.Errorf("unknown Kind Unit = %q", got)
	}
}

// Property: Add is commutative and associative; Sub inverts Add.
func TestCapacityAddProperties(t *testing.T) {
	f := func(a1, a2, a3, a4, b1, b2, b3, b4 int) bool {
		a := capFromInts(a1, a2, a3, a4)
		b := capFromInts(b1, b2, b3, b4)
		if !a.Add(b).Equal(b.Add(a)) {
			return false
		}
		return a.Add(b).Sub(b).Equal(a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: FitsIn is a partial order compatible with Add: if a fits in b
// then a+c fits in b+c.
func TestCapacityFitsInMonotone(t *testing.T) {
	f := func(a1, a2, b1, b2, c1, c2 int) bool {
		a := capFromInts(a1, a2, a1, a2)
		b := a.Add(capFromInts(abs(b1), abs(b2), abs(b1), abs(b2))) // b ≥ a
		c := capFromInts(c1, c2, c1, c2)
		if !a.FitsIn(b) {
			return false
		}
		return a.Add(c).FitsIn(b.Add(c))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Min/Max bound their inputs.
func TestCapacityMinMaxBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 500; i++ {
		a := Capacity{CPU: rng.Float64() * 100, MemoryMB: rng.Float64() * 100,
			DiskGB: rng.Float64() * 100, BandwidthMbps: rng.Float64() * 100}
		b := Capacity{CPU: rng.Float64() * 100, MemoryMB: rng.Float64() * 100,
			DiskGB: rng.Float64() * 100, BandwidthMbps: rng.Float64() * 100}
		min, max := a.Min(b), a.Max(b)
		if !min.FitsIn(a) || !min.FitsIn(b) {
			t.Fatalf("Min(%v,%v)=%v exceeds an input", a, b, min)
		}
		if !a.FitsIn(max) || !b.FitsIn(max) {
			t.Fatalf("Max(%v,%v)=%v below an input", a, b, max)
		}
		if !min.Add(max).Equal(a.Add(b)) {
			t.Fatalf("min+max != a+b for %v, %v", a, b)
		}
	}
}

func TestShorthands(t *testing.T) {
	if n := Nodes(26); n.CPU != 26 || n.MemoryMB != 0 {
		t.Errorf("Nodes(26) = %v", n)
	}
	if bw := Bandwidth(622); bw.BandwidthMbps != 622 || bw.CPU != 0 {
		t.Errorf("Bandwidth(622) = %v", bw)
	}
}

func abs(x int) int {
	if x == math.MinInt {
		return math.MaxInt
	}
	if x < 0 {
		return -x
	}
	return x
}
