// Package sla models Service Level Agreements for the G-QoSM framework:
// QoS parameters recorded as exact values, ranges, or lists (paper §5.3),
// the three QoS classes (§5.1), adaptation options negotiated into the
// agreement (§5.2, Table 4), composite SLAs built from sub-SLAs (§5.6),
// the SLA lifecycle, and a repository for established agreements (§3.1).
package sla

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"
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
// slice. Ranges are discretized into at most steps points (from Min to
// Top(steps), which is Max up to its last bit); exact parameters yield
// their single value; lists yield their values.
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
			dst = append(dst, p.rangeLevel(i, steps))
		}
		return dst
	default:
		return dst
	}
}

// Top returns the highest level AppendChoices(dst, steps) yields. That is
// Best, except for a range discretized into steps ≥ 2 points: its top
// level is computed, Min + (Max−Min)·(steps−1)/(steps−1), and the
// rounding can leave it a last bit above or below Max.
func (p Param) Top(steps int) float64 {
	if p.Form == FormRange && steps >= 2 && p.Max != p.Min {
		return p.rangeLevel(steps-1, steps)
	}
	return p.Best()
}

// rangeLevel is the i-th of a range's steps discretization points.
func (p Param) rangeLevel(i, steps int) float64 {
	return p.Min + (p.Max-p.Min)*float64(i)/float64(steps-1)
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

// Spec is the full QoS parameter set P_j = {p_1j, …, p_nj} (§5.3) for one
// service, at most one parameter per resource dimension, plus the network
// endpoints the bandwidth parameter applies to.
//
// Params holds the parameters in ascending Kind order (the canonical
// resource.Kinds order), each kind at most once; NewSpec and the decoders
// build it that way and Validate rejects a Spec that breaks it. Look a
// dimension up with Get or Has: resource.Kind is an int, so indexing
// Params by a kind compiles but reads a position, not a dimension.
//
// A Spec value shares its Params array (and each list's Values) with every
// copy of it. A live SLA document's spec is therefore copy-on-write: its
// owner installs a Clone and later replaces the whole Spec with another
// Clone, never writing into Params, so a copy taken under the owner's lock
// can be read after the lock is dropped.
type Spec struct {
	Params []Param

	// SourceIP and DestIP identify the network flow for the bandwidth
	// parameter (Table 1).
	SourceIP, DestIP string
	// MaxPacketLossPct is the "Packet_Loss LessThan N%" constraint of
	// Table 1; zero means unconstrained.
	MaxPacketLossPct float64
}

// Errors Spec.Validate returns, wrapped with the kinds involved, for a
// Params slice that breaks the one-per-kind, kind-ordered invariant or
// names a kind outside resource.Kinds (Floor would drop it, Accepts
// would hold it to 0, and no decoder reads its name back).
var (
	ErrKindRepeated = errors.New("sla: parameter kind repeated")
	ErrKindOrder    = errors.New("sla: parameters out of kind order")
	ErrKindUnknown  = errors.New("sla: parameter kind unknown")
)

// NewSpec builds a Spec from parameters in any order; a later parameter
// for a dimension replaces an earlier one. It allocates once.
func NewSpec(params ...Param) Spec {
	out := make([]Param, 0, len(params))
	for _, p := range params {
		i, found := slices.BinarySearchFunc(out, p.Kind, func(q Param, k resource.Kind) int { return cmp.Compare(q.Kind, k) })
		if found {
			out[i] = p
		} else {
			out = slices.Insert(out, i, p)
		}
	}
	return Spec{Params: out}
}

// Get returns the parameter for dimension k.
func (s Spec) Get(k resource.Kind) (Param, bool) {
	for i := range s.Params {
		if s.Params[i].Kind == k {
			return s.Params[i], true
		}
	}
	return Param{}, false
}

// Has reports whether the spec has a parameter for dimension k.
func (s Spec) Has(k resource.Kind) bool {
	_, ok := s.Get(k)
	return ok
}

// Validate checks the kinds first — each one of resource.Kinds, at most
// once, in order — and then every parameter.
func (s Spec) Validate() error {
	for i, p := range s.Params {
		if !slices.Contains(resource.Kinds[:], p.Kind) {
			return fmt.Errorf("%w: %s", ErrKindUnknown, p.Kind)
		}
		if i > 0 {
			switch prev := s.Params[i-1].Kind; {
			case p.Kind == prev:
				return fmt.Errorf("%w: %s", ErrKindRepeated, p.Kind)
			case p.Kind < prev:
				return fmt.Errorf("%w: %s after %s", ErrKindOrder, p.Kind, prev)
			}
		}
	}
	for _, p := range s.Params {
		if err := p.Validate(); err != nil {
			return err
		}
	}
	if s.MaxPacketLossPct < 0 || s.MaxPacketLossPct > 100 {
		return fmt.Errorf("sla: packet loss bound %g%% out of range", s.MaxPacketLossPct)
	}
	return nil
}

// Floor returns the capacity corresponding to every parameter's minimum
// acceptable quality — the guaranteed allocation g(u) of Algorithm 1.
func (s Spec) Floor() resource.Capacity {
	var c resource.Capacity
	for _, p := range s.Params {
		c = c.With(p.Kind, p.Floor())
	}
	return c
}

// Best returns the capacity at every parameter's best quality.
func (s Spec) Best() resource.Capacity {
	var c resource.Capacity
	for _, p := range s.Params {
		c = c.With(p.Kind, p.Best())
	}
	return c
}

// Accepts reports whether delivering capacity c satisfies every parameter.
func (s Spec) Accepts(c resource.Capacity) bool {
	for _, p := range s.Params {
		if !p.Accepts(c.Get(p.Kind)) {
			return false
		}
	}
	return true
}

// Clamp returns c adjusted dimension-wise to the nearest acceptable
// quality (degrading toward the floor), leaving dimensions without
// parameters untouched.
func (s Spec) Clamp(c resource.Capacity) resource.Capacity {
	for _, p := range s.Params {
		c = c.With(p.Kind, p.Clamp(c.Get(p.Kind)))
	}
	return c
}

// Clone returns a deep copy of the spec: one copy of Params, plus one of
// each list's Values.
func (s Spec) Clone() Spec {
	out := s
	out.Params = slices.Clone(s.Params)
	for i := range out.Params {
		out.Params[i].Values = append([]float64(nil), out.Params[i].Values...)
	}
	return out
}
