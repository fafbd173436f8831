// Package sla models Service Level Agreements for the G-QoSM framework:
// QoS parameters recorded as exact values, ranges, or lists (paper §5.3),
// the three QoS classes (§5.1), adaptation options negotiated into the
// agreement (§5.2, Table 4), composite SLAs built from sub-SLAs (§5.6),
// the SLA lifecycle, and a repository for established agreements (§3.1).
package sla

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"

	"gqosm/internal/resource"
)

// Form discriminates how a QoS parameter's acceptable values are recorded
// in the SLA (paper §5.3: "QoS parameter values p_i may be recorded in the
// SLA in two forms": a range or a list; guaranteed-class SLAs use exact
// values).
type Form int

// Parameter forms.
const (
	FormExact Form = iota + 1 // single required value (guaranteed class)
	FormRange                 // [Min, Max], Max preferred
	FormList                  // explicit acceptable values, larger preferred
)

// Param is the acceptable-quality specification for one resource dimension.
type Param struct {
	Kind resource.Kind
	Form Form

	// Exact is the required value for FormExact.
	Exact float64
	// Min and Max bound FormRange (Min = minimum acceptable quality p_b,
	// Max = best quality p_a; paper: "p_b ≤ p_i ≤ p_a where p_a is a
	// better quality than p_b").
	Min, Max float64
	// List holds the acceptable values for FormList, kept sorted
	// ascending.
	Values []float64
}

// Exact returns an exact-value parameter.
func Exact(k resource.Kind, v float64) Param {
	return Param{Kind: k, Form: FormExact, Exact: v}
}

// Range returns a range parameter over [min, max].
func Range(k resource.Kind, min, max float64) Param {
	return Param{Kind: k, Form: FormRange, Min: min, Max: max}
}

// List returns a list parameter; values are copied and sorted.
func List(k resource.Kind, values ...float64) Param {
	vs := append([]float64(nil), values...)
	sort.Float64s(vs)
	return Param{Kind: k, Form: FormList, Values: vs}
}

// Validate checks internal consistency.
func (p Param) Validate() error {
	switch p.Form {
	case FormExact:
		if p.Exact < 0 {
			return fmt.Errorf("sla: negative exact value %g for %s", p.Exact, p.Kind)
		}
	case FormRange:
		if p.Min < 0 || p.Max < p.Min {
			return fmt.Errorf("sla: bad range [%g, %g] for %s", p.Min, p.Max, p.Kind)
		}
	case FormList:
		if len(p.Values) == 0 {
			return fmt.Errorf("sla: empty value list for %s", p.Kind)
		}
		for i, v := range p.Values {
			if v < 0 {
				return fmt.Errorf("sla: negative list value %g for %s", v, p.Kind)
			}
			if i > 0 && p.Values[i] < p.Values[i-1] {
				return fmt.Errorf("sla: unsorted value list for %s", p.Kind)
			}
		}
	default:
		return fmt.Errorf("sla: unknown parameter form %d", p.Form)
	}
	return nil
}

// Floor returns the minimum acceptable quality — the SLA violation
// threshold the adaptation scheme must never go below.
func (p Param) Floor() float64 {
	switch p.Form {
	case FormExact:
		return p.Exact
	case FormRange:
		return p.Min
	case FormList:
		if len(p.Values) == 0 {
			return 0
		}
		return p.Values[0]
	default:
		return 0
	}
}

// Best returns the highest quality the SLA allows the provider to deliver.
func (p Param) Best() float64 {
	switch p.Form {
	case FormExact:
		return p.Exact
	case FormRange:
		return p.Max
	case FormList:
		if len(p.Values) == 0 {
			return 0
		}
		return p.Values[len(p.Values)-1]
	default:
		return 0
	}
}

// Accepts reports whether delivering quality v satisfies the parameter.
func (p Param) Accepts(v float64) bool {
	const eps = resource.Epsilon
	switch p.Form {
	case FormExact:
		return math.Abs(v-p.Exact) <= eps
	case FormRange:
		return v >= p.Min-eps && v <= p.Max+eps
	case FormList:
		for _, a := range p.Values {
			if math.Abs(v-a) <= eps {
				return true
			}
		}
		return false
	default:
		return false
	}
}

// AppendChoices appends to dst the candidate quality levels the optimizer
// may select for this parameter, ascending, and returns the extended
// slice. Ranges are discretized into at most steps points (always
// including Min and Max); exact parameters yield their single value; lists
// yield their values.
func (p Param) AppendChoices(dst []float64, steps int) []float64 {
	switch p.Form {
	case FormExact:
		return append(dst, p.Exact)
	case FormList:
		return append(dst, p.Values...)
	case FormRange:
		if steps < 2 || p.Max == p.Min {
			return append(dst, p.Min, p.Max)
		}
		for i := 0; i < steps; i++ {
			dst = append(dst, p.Min+(p.Max-p.Min)*float64(i)/float64(steps-1))
		}
		return dst
	default:
		return dst
	}
}

// Clamp returns the acceptable quality nearest to v from below: the largest
// acceptable value ≤ v, or the floor when v is below every acceptable
// value. This is how the adaptation scheme degrades a service "while still
// satisfying their SLAs".
func (p Param) Clamp(v float64) float64 {
	switch p.Form {
	case FormExact:
		return p.Exact
	case FormRange:
		if v < p.Min {
			return p.Min
		}
		if v > p.Max {
			return p.Max
		}
		return v
	case FormList:
		best := p.Floor()
		for _, a := range p.Values {
			if a <= v+resource.Epsilon && a > best {
				best = a
			}
		}
		return best
	default:
		return 0
	}
}

// String renders the parameter for logs, e.g. "cpu in [10, 55]".
func (p Param) String() string {
	switch p.Form {
	case FormExact:
		return fmt.Sprintf("%s = %g %s", p.Kind, p.Exact, p.Kind.Unit())
	case FormRange:
		return fmt.Sprintf("%s in [%g, %g] %s", p.Kind, p.Min, p.Max, p.Kind.Unit())
	case FormList:
		parts := make([]string, len(p.Values))
		for i, v := range p.Values {
			parts[i] = fmt.Sprintf("%g", v)
		}
		return fmt.Sprintf("%s in {%s} %s", p.Kind, strings.Join(parts, ", "), p.Kind.Unit())
	default:
		return fmt.Sprintf("%s <invalid>", p.Kind)
	}
}

// ErrNoParam is returned when a spec lacks a parameter for a dimension.
var ErrNoParam = errors.New("sla: no parameter for dimension")

// Spec is the full QoS parameter set P_j = {p_1j, …, p_nj} (§5.3) for one
// service, keyed by resource dimension, plus the network endpoints the
// bandwidth parameter applies to.
type Spec struct {
	Params map[resource.Kind]Param

	// SourceIP and DestIP identify the network flow for the bandwidth
	// parameter (Table 1).
	SourceIP, DestIP string
	// MaxPacketLossPct is the "Packet_Loss LessThan N%" constraint of
	// Table 1; zero means unconstrained.
	MaxPacketLossPct float64
}

// NewSpec builds a Spec from parameters; later parameters for the same
// dimension replace earlier ones.
func NewSpec(params ...Param) Spec {
	s := Spec{Params: make(map[resource.Kind]Param, len(params))}
	for _, p := range params {
		s.Params[p.Kind] = p
	}
	return s
}

// Validate checks every parameter.
func (s Spec) Validate() error {
	for _, p := range s.sorted() {
		if err := p.Validate(); err != nil {
			return err
		}
	}
	if s.MaxPacketLossPct < 0 || s.MaxPacketLossPct > 100 {
		return fmt.Errorf("sla: packet loss bound %g%% out of range", s.MaxPacketLossPct)
	}
	return nil
}

// Kinds returns the dimensions with parameters, in canonical order.
func (s Spec) Kinds() []resource.Kind {
	var out []resource.Kind
	for _, k := range resource.Kinds {
		if _, ok := s.Params[k]; ok {
			out = append(out, k)
		}
	}
	return out
}

func (s Spec) sorted() []Param {
	out := make([]Param, 0, len(s.Params))
	for _, k := range s.Kinds() {
		out = append(out, s.Params[k])
	}
	return out
}

// Floor returns the capacity corresponding to every parameter's minimum
// acceptable quality — the guaranteed allocation g(u) of Algorithm 1.
func (s Spec) Floor() resource.Capacity {
	var c resource.Capacity
	for k, p := range s.Params {
		c = c.With(k, p.Floor())
	}
	return c
}

// Best returns the capacity at every parameter's best quality.
func (s Spec) Best() resource.Capacity {
	var c resource.Capacity
	for k, p := range s.Params {
		c = c.With(k, p.Best())
	}
	return c
}

// Accepts reports whether delivering capacity c satisfies every parameter.
func (s Spec) Accepts(c resource.Capacity) bool {
	for k, p := range s.Params {
		if !p.Accepts(c.Get(k)) {
			return false
		}
	}
	return true
}

// Clamp returns c adjusted dimension-wise to the nearest acceptable
// quality (degrading toward the floor), leaving dimensions without
// parameters untouched.
func (s Spec) Clamp(c resource.Capacity) resource.Capacity {
	for k, p := range s.Params {
		c = c.With(k, p.Clamp(c.Get(k)))
	}
	return c
}

// Clone returns a deep copy of the spec.
func (s Spec) Clone() Spec {
	out := Spec{
		Params:           make(map[resource.Kind]Param, len(s.Params)),
		SourceIP:         s.SourceIP,
		DestIP:           s.DestIP,
		MaxPacketLossPct: s.MaxPacketLossPct,
	}
	for k, p := range s.Params {
		p.Values = append([]float64(nil), p.Values...)
		out.Params[k] = p
	}
	return out
}
