package sla

import (
	"errors"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"gqosm/internal/resource"
)

func TestParamConstructorsValidate(t *testing.T) {
	tests := []struct {
		name    string
		p       Param
		wantErr bool
	}{
		{"exact ok", Exact(resource.CPU, 10), false},
		{"exact negative", Exact(resource.CPU, -1), true},
		{"range ok", Range(resource.MemoryMB, 48, 64), false},
		{"range inverted", Param{Kind: resource.MemoryMB, Form: FormRange, Min: 64, Max: 48}, true},
		{"range negative", Param{Kind: resource.MemoryMB, Form: FormRange, Min: -1, Max: 4}, true},
		{"list ok", List(resource.BandwidthMbps, 45, 10, 100), false},
		{"list empty", Param{Kind: resource.CPU, Form: FormList}, true},
		{"list negative", Param{Kind: resource.CPU, Form: FormList, Values: []float64{-1, 2}}, true},
		{"list unsorted", Param{Kind: resource.CPU, Form: FormList, Values: []float64{5, 2}}, true},
		{"unknown form", Param{Kind: resource.CPU}, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if err := tt.p.Validate(); (err != nil) != tt.wantErr {
				t.Errorf("Validate() = %v, wantErr %v", err, tt.wantErr)
			}
		})
	}
}

func TestListSortsValues(t *testing.T) {
	p := List(resource.CPU, 30, 10, 20)
	if p.Values[0] != 10 || p.Values[1] != 20 || p.Values[2] != 30 {
		t.Fatalf("List did not sort: %v", p.Values)
	}
}

func TestParamFloorBest(t *testing.T) {
	tests := []struct {
		p           Param
		floor, best float64
	}{
		{Exact(resource.CPU, 10), 10, 10},
		{Range(resource.CPU, 4, 10), 4, 10},
		{List(resource.CPU, 30, 10, 20), 10, 30},
	}
	for _, tt := range tests {
		if got := tt.p.Floor(); got != tt.floor {
			t.Errorf("%v Floor = %g, want %g", tt.p, got, tt.floor)
		}
		if got := tt.p.Best(); got != tt.best {
			t.Errorf("%v Best = %g, want %g", tt.p, got, tt.best)
		}
	}
	var empty Param
	if empty.Floor() != 0 || empty.Best() != 0 {
		t.Error("invalid param Floor/Best should be 0")
	}
}

func TestParamAccepts(t *testing.T) {
	tests := []struct {
		name string
		p    Param
		v    float64
		want bool
	}{
		{"exact hit", Exact(resource.CPU, 10), 10, true},
		{"exact miss", Exact(resource.CPU, 10), 9, false},
		{"range inside", Range(resource.CPU, 4, 10), 7, true},
		{"range low edge", Range(resource.CPU, 4, 10), 4, true},
		{"range high edge", Range(resource.CPU, 4, 10), 10, true},
		{"range below", Range(resource.CPU, 4, 10), 3.9, false},
		{"range above", Range(resource.CPU, 4, 10), 10.1, false},
		{"list hit", List(resource.CPU, 10, 20), 20, true},
		{"list miss", List(resource.CPU, 10, 20), 15, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.p.Accepts(tt.v); got != tt.want {
				t.Errorf("Accepts(%g) = %v, want %v", tt.v, got, tt.want)
			}
		})
	}
}

func TestParamChoices(t *testing.T) {
	if c := Exact(resource.CPU, 10).AppendChoices(nil, 5); len(c) != 1 || c[0] != 10 {
		t.Errorf("Exact choices = %v", c)
	}
	if c := List(resource.CPU, 10, 20).AppendChoices(nil, 5); len(c) != 2 || c[0] != 10 || c[1] != 20 {
		t.Errorf("List choices = %v", c)
	}
	c := Range(resource.CPU, 0, 10).AppendChoices(nil, 5)
	if len(c) != 5 || c[0] != 0 || c[4] != 10 || c[2] != 5 {
		t.Errorf("Range choices = %v", c)
	}
	// Degenerate steps still include both endpoints.
	if c := Range(resource.CPU, 2, 8).AppendChoices(nil, 1); len(c) != 2 || c[0] != 2 || c[1] != 8 {
		t.Errorf("Range choices(1) = %v", c)
	}
	// Appending keeps what dst already holds and copies list values.
	vals := List(resource.CPU, 3, 4)
	c = vals.AppendChoices([]float64{1}, 5)
	if len(c) != 3 || c[0] != 1 || c[1] != 3 || c[2] != 4 {
		t.Errorf("append onto dst = %v", c)
	}
	c[1] = 99
	if vals.Values[0] != 3 {
		t.Error("AppendChoices aliased the parameter's list")
	}
}

// TestParamTop pins Top to the last level AppendChoices yields, including
// a range whose computed top level rounds a last bit above Max.
func TestParamTop(t *testing.T) {
	above := Range(resource.CPU, 0.07, 0.58)
	if top := above.Top(4); top <= above.Max {
		t.Errorf("Range(0.07, 0.58).Top(4) = %v, want the last bit above Max", top)
	}
	for _, p := range []Param{
		Exact(resource.CPU, 10), List(resource.CPU, 10, 20), Range(resource.CPU, 0, 10),
		Range(resource.CPU, 2, 2), above,
	} {
		for _, steps := range []int{1, 2, 4, 5} {
			c := p.AppendChoices(nil, steps)
			if top := p.Top(steps); top != c[len(c)-1] {
				t.Errorf("%+v.Top(%d) = %v, want the last choice of %v", p, steps, top, c)
			}
		}
	}
}

func TestParamClamp(t *testing.T) {
	tests := []struct {
		name string
		p    Param
		v    float64
		want float64
	}{
		{"exact always exact", Exact(resource.CPU, 10), 3, 10},
		{"range inside passthrough", Range(resource.CPU, 4, 10), 7, 7},
		{"range below floors", Range(resource.CPU, 4, 10), 1, 4},
		{"range above caps", Range(resource.CPU, 4, 10), 99, 10},
		{"list rounds down", List(resource.CPU, 10, 20, 30), 25, 20},
		{"list below floors", List(resource.CPU, 10, 20, 30), 5, 10},
		{"list exact member", List(resource.CPU, 10, 20, 30), 30, 30},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.p.Clamp(tt.v); got != tt.want {
				t.Errorf("Clamp(%g) = %g, want %g", tt.v, got, tt.want)
			}
		})
	}
}

// Property: Clamp always yields an acceptable value for valid params, and
// clamping an already-acceptable value of a range is the identity.
func TestParamClampProperty(t *testing.T) {
	f := func(minRaw, spanRaw, vRaw uint16) bool {
		min := float64(minRaw % 1000)
		max := min + float64(spanRaw%1000)
		v := float64(vRaw)
		p := Range(resource.CPU, min, max)
		got := p.Clamp(v)
		if !p.Accepts(got) {
			return false
		}
		if p.Accepts(v) && got != v {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestParamString(t *testing.T) {
	if s := Exact(resource.CPU, 10).String(); !strings.Contains(s, "= 10") {
		t.Errorf("Exact String = %q", s)
	}
	if s := Range(resource.MemoryMB, 48, 64).String(); !strings.Contains(s, "[48, 64]") {
		t.Errorf("Range String = %q", s)
	}
	if s := List(resource.CPU, 1, 2).String(); !strings.Contains(s, "{1, 2}") {
		t.Errorf("List String = %q", s)
	}
	if s := (Param{Kind: resource.CPU}).String(); !strings.Contains(s, "invalid") {
		t.Errorf("invalid String = %q", s)
	}
}

func table1Spec() Spec {
	s := NewSpec(
		Exact(resource.CPU, 4),
		Exact(resource.MemoryMB, 64),
		Exact(resource.BandwidthMbps, 10),
	)
	s.SourceIP = "192.200.168.33"
	s.DestIP = "135.200.50.101"
	s.MaxPacketLossPct = 10
	return s
}

func TestSpecBasics(t *testing.T) {
	s := table1Spec()
	if err := s.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if len(s.Params) != 3 || s.Params[0].Kind != resource.CPU {
		t.Fatalf("Params = %v", s.Params)
	}
	if p, ok := s.Get(resource.MemoryMB); !ok || p.Exact != 64 {
		t.Errorf("Get(MemoryMB) = %v, %v", p, ok)
	}
	if s.Has(resource.DiskGB) {
		t.Error("Has(DiskGB) = true")
	}
	want := resource.Capacity{CPU: 4, MemoryMB: 64, BandwidthMbps: 10}
	if !s.Floor().Equal(want) {
		t.Errorf("Floor = %v", s.Floor())
	}
	if !s.Best().Equal(want) {
		t.Errorf("Best = %v", s.Best())
	}
	if !s.Accepts(want) {
		t.Error("Accepts(exact) = false")
	}
	if s.Accepts(want.Add(resource.Nodes(1))) {
		t.Error("Accepts(over) = true for exact spec")
	}
}

// TestNewSpecOrdersAndReplaces: parameters given in any order come out
// one per kind in kind order, and a later parameter for a kind replaces
// an earlier one.
func TestNewSpecOrdersAndReplaces(t *testing.T) {
	s := NewSpec(
		Exact(resource.BandwidthMbps, 10),
		Range(resource.CPU, 1, 2),
		Exact(resource.MemoryMB, 64),
		Exact(resource.CPU, 4),
	)
	want := []Param{Exact(resource.CPU, 4), Exact(resource.MemoryMB, 64), Exact(resource.BandwidthMbps, 10)}
	if !reflect.DeepEqual(s.Params, want) {
		t.Errorf("Params = %v, want %v", s.Params, want)
	}
	if err := s.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

// TestSpecValidateKindOrder: a Spec literal can hold kinds out of order,
// one kind twice, or a kind outside resource.Kinds, which Get, Floor and
// the encoders do not expect. Validate names all three, and a kind error
// comes before any parameter's own.
func TestSpecValidateKindOrder(t *testing.T) {
	cpu, mem, disk := Exact(resource.CPU, 4), Exact(resource.MemoryMB, 64), Exact(resource.DiskGB, 10)
	nine := Exact(resource.Kind(9), 5)
	tests := []struct {
		name   string
		params []Param
		want   error
	}{
		{"empty", nil, nil},
		{"one", []Param{mem}, nil},
		{"kind order", []Param{cpu, mem, disk}, nil},
		{"gap in the kinds", []Param{cpu, disk}, nil},
		{"kind repeated", []Param{cpu, Range(resource.CPU, 1, 8)}, ErrKindRepeated},
		{"kind repeated last", []Param{cpu, mem, mem}, ErrKindRepeated},
		{"two kinds swapped", []Param{mem, cpu}, ErrKindOrder},
		{"kind repeated apart", []Param{cpu, mem, cpu}, ErrKindOrder},
		{"unknown kind after cpu", NewSpec(Exact(resource.CPU, 2), nine).Params, ErrKindUnknown},
		{"unknown kind alone", []Param{nine}, ErrKindUnknown},
		{"kind zero", []Param{Exact(0, 1), cpu}, ErrKindUnknown},
		{"negative kind", []Param{Exact(-1, 1)}, ErrKindUnknown},
		{"one past the last kind", []Param{cpu, Exact(resource.BandwidthMbps+1, 1)}, ErrKindUnknown},
		{"unknown kind after a bad parameter", []Param{Range(resource.CPU, 8, 1), nine}, ErrKindUnknown},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			err := Spec{Params: tt.params}.Validate()
			if !errors.Is(err, tt.want) {
				t.Errorf("Validate() = %v, want %v", err, tt.want)
			}
		})
	}
}

func TestSpecValidatePacketLoss(t *testing.T) {
	s := table1Spec()
	s.MaxPacketLossPct = 150
	if err := s.Validate(); err == nil {
		t.Error("packet loss 150% accepted")
	}
	s.MaxPacketLossPct = -1
	if err := s.Validate(); err == nil {
		t.Error("packet loss -1% accepted")
	}
}

func TestSpecRangeClampAndFloor(t *testing.T) {
	s := NewSpec(
		Range(resource.CPU, 10, 55),
		Range(resource.MemoryMB, 48, 64),
		List(resource.BandwidthMbps, 10, 45, 100),
	)
	floor := resource.Capacity{CPU: 10, MemoryMB: 48, BandwidthMbps: 10}
	if !s.Floor().Equal(floor) {
		t.Errorf("Floor = %v, want %v", s.Floor(), floor)
	}
	best := resource.Capacity{CPU: 55, MemoryMB: 64, BandwidthMbps: 100}
	if !s.Best().Equal(best) {
		t.Errorf("Best = %v, want %v", s.Best(), best)
	}
	in := resource.Capacity{CPU: 30, MemoryMB: 100, BandwidthMbps: 60}
	got := s.Clamp(in)
	want := resource.Capacity{CPU: 30, MemoryMB: 64, BandwidthMbps: 45}
	if !got.Equal(want) {
		t.Errorf("Clamp = %v, want %v", got, want)
	}
	if !s.Accepts(got) {
		t.Error("clamped capacity not accepted")
	}
}

func TestSpecCloneIsDeep(t *testing.T) {
	s := NewSpec(List(resource.CPU, 10, 20), Exact(resource.DiskGB, 5))
	c := s.Clone()
	c.Params[0].Values[0] = 99
	c.Params[1] = Exact(resource.MemoryMB, 1)
	if p, _ := s.Get(resource.CPU); p.Values[0] != 10 {
		t.Error("Clone shares Values slice")
	}
	if s.Has(resource.MemoryMB) {
		t.Error("Clone shares Params array")
	}
}

// Property: Spec.Clamp always produces an accepted capacity when every
// parameter is a valid range.
func TestSpecClampAcceptsProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 300; i++ {
		s := NewSpec(
			Range(resource.CPU, float64(rng.Intn(10)), float64(10+rng.Intn(50))),
			Range(resource.MemoryMB, float64(rng.Intn(100)), float64(100+rng.Intn(1000))),
		)
		in := resource.Capacity{CPU: rng.Float64() * 100, MemoryMB: rng.Float64() * 2000}
		if !s.Accepts(s.Clamp(in)) {
			t.Fatalf("Clamp(%v) of %v not accepted", in, s)
		}
	}
}

var (
	specSink  Spec
	paramSink Param
	capSink   resource.Capacity
	boolSink  bool
	errSink   error
)

// TestSpecAllocGate holds the spec's per-request costs to counts. While
// Params was a map, NewSpec allocated about 860 B, every Clone about
// 690 B in 2 objects, and Validate a sorted copy.
func TestSpecAllocGate(t *testing.T) {
	cpu, mem := Range(resource.CPU, 2, 8), Exact(resource.MemoryMB, 512)
	exact := NewSpec(Exact(resource.CPU, 4), Exact(resource.MemoryMB, 64), Exact(resource.BandwidthMbps, 10))
	spec := NewSpec(cpu, List(resource.BandwidthMbps, 10, 45), mem)
	c := resource.Capacity{CPU: 5, MemoryMB: 600, BandwidthMbps: 20}
	for _, g := range []struct {
		name string
		want float64
		f    func()
	}{
		{"NewSpec of two params", 1, func() { specSink = NewSpec(mem, cpu) }},
		{"Clone of an exact-only spec", 1, func() { specSink = exact.Clone() }},
		{"Get", 0, func() { paramSink, boolSink = spec.Get(resource.BandwidthMbps) }},
		{"Has", 0, func() { boolSink = spec.Has(resource.DiskGB) }},
		{"Floor", 0, func() { capSink = spec.Floor() }},
		{"Best", 0, func() { capSink = spec.Best() }},
		{"Accepts", 0, func() { boolSink = spec.Accepts(c) }},
		{"Clamp", 0, func() { capSink = spec.Clamp(c) }},
		{"Validate", 0, func() { errSink = spec.Validate() }},
	} {
		if got := testing.AllocsPerRun(100, g.f); got != g.want {
			t.Errorf("%s allocates %.0f objects, want %.0f", g.name, got, g.want)
		}
	}
}
