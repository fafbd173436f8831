package sla

import (
	"math/rand"
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
	kinds := s.Kinds()
	if len(kinds) != 3 || kinds[0] != resource.CPU {
		t.Fatalf("Kinds = %v", kinds)
	}
	if _, ok := s.Params[resource.DiskGB]; ok {
		t.Error("Param(DiskGB) found")
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
	s := NewSpec(List(resource.CPU, 10, 20))
	c := s.Clone()
	c.Params[resource.CPU].Values[0] = 99
	c.Params[resource.MemoryMB] = Exact(resource.MemoryMB, 1)
	if s.Params[resource.CPU].Values[0] != 10 {
		t.Error("Clone shares Values slice")
	}
	if _, ok := s.Params[resource.MemoryMB]; ok {
		t.Error("Clone shares Params map")
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
