// Package resource models Grid resource capacity: multi-dimensional
// capacity vectors (CPU nodes, memory, disk, network bandwidth), pools that
// hand out interval reservations against a total capacity, and
// administrative domains that group pools.
//
// The paper's adaptation algorithm (§5.4) speaks of "resource capacity"
// encompassing CPU, network and storage resources; Capacity is the
// concrete, comparable representation of that quantity used throughout the
// broker.
package resource

import (
	"fmt"
	"math"
	"strconv"
)

// Kind identifies a capacity dimension.
type Kind int

// The capacity dimensions the G-QoSM broker manages. These correspond to
// the SLA parameters in the paper's Tables 1 and 4 (CPU nodes, memory MB,
// disk GB, bandwidth Mbps).
const (
	CPU Kind = iota + 1
	MemoryMB
	DiskGB
	BandwidthMbps
)

// Kinds lists every capacity dimension in canonical order.
var Kinds = [...]Kind{CPU, MemoryMB, DiskGB, BandwidthMbps}

// String returns the canonical name of the dimension.
func (k Kind) String() string {
	switch k {
	case CPU:
		return "cpu"
	case MemoryMB:
		return "memory-mb"
	case DiskGB:
		return "disk-gb"
	case BandwidthMbps:
		return "bandwidth-mbps"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Unit returns the human-readable unit for the dimension, as printed in the
// paper's SLA documents.
func (k Kind) Unit() string {
	switch k {
	case CPU:
		return "nodes"
	case MemoryMB:
		return "MB"
	case DiskGB:
		return "GB"
	case BandwidthMbps:
		return "Mbps"
	default:
		return ""
	}
}

// Capacity is a non-negative quantity of each resource dimension. The zero
// value is the empty capacity.
type Capacity struct {
	CPU           float64 // processor nodes
	MemoryMB      float64 // primary memory, megabytes
	DiskGB        float64 // disk storage, gigabytes
	BandwidthMbps float64 // network bandwidth, megabits/second
}

// Get returns the quantity of dimension k.
func (c Capacity) Get(k Kind) float64 {
	switch k {
	case CPU:
		return c.CPU
	case MemoryMB:
		return c.MemoryMB
	case DiskGB:
		return c.DiskGB
	case BandwidthMbps:
		return c.BandwidthMbps
	default:
		return 0
	}
}

// With returns a copy of c with dimension k set to v.
func (c Capacity) With(k Kind, v float64) Capacity {
	switch k {
	case CPU:
		c.CPU = v
	case MemoryMB:
		c.MemoryMB = v
	case DiskGB:
		c.DiskGB = v
	case BandwidthMbps:
		c.BandwidthMbps = v
	}
	return c
}

// Add returns c + o element-wise.
func (c Capacity) Add(o Capacity) Capacity {
	return Capacity{
		CPU:           c.CPU + o.CPU,
		MemoryMB:      c.MemoryMB + o.MemoryMB,
		DiskGB:        c.DiskGB + o.DiskGB,
		BandwidthMbps: c.BandwidthMbps + o.BandwidthMbps,
	}
}

// Sub returns c − o element-wise. The result may have negative dimensions;
// callers that need a floor should follow with ClampMin.
func (c Capacity) Sub(o Capacity) Capacity {
	return Capacity{
		CPU:           c.CPU - o.CPU,
		MemoryMB:      c.MemoryMB - o.MemoryMB,
		DiskGB:        c.DiskGB - o.DiskGB,
		BandwidthMbps: c.BandwidthMbps - o.BandwidthMbps,
	}
}

// Scale returns c with every dimension multiplied by f.
func (c Capacity) Scale(f float64) Capacity {
	return Capacity{
		CPU:           c.CPU * f,
		MemoryMB:      c.MemoryMB * f,
		DiskGB:        c.DiskGB * f,
		BandwidthMbps: c.BandwidthMbps * f,
	}
}

// ClampMin returns c with every dimension raised to at least min's value in
// that dimension.
func (c Capacity) ClampMin(min Capacity) Capacity {
	return Capacity{
		CPU:           math.Max(c.CPU, min.CPU),
		MemoryMB:      math.Max(c.MemoryMB, min.MemoryMB),
		DiskGB:        math.Max(c.DiskGB, min.DiskGB),
		BandwidthMbps: math.Max(c.BandwidthMbps, min.BandwidthMbps),
	}
}

// Min returns the element-wise minimum of c and o.
func (c Capacity) Min(o Capacity) Capacity {
	return Capacity{
		CPU:           math.Min(c.CPU, o.CPU),
		MemoryMB:      math.Min(c.MemoryMB, o.MemoryMB),
		DiskGB:        math.Min(c.DiskGB, o.DiskGB),
		BandwidthMbps: math.Min(c.BandwidthMbps, o.BandwidthMbps),
	}
}

// Max returns the element-wise maximum of c and o.
func (c Capacity) Max(o Capacity) Capacity {
	return Capacity{
		CPU:           math.Max(c.CPU, o.CPU),
		MemoryMB:      math.Max(c.MemoryMB, o.MemoryMB),
		DiskGB:        math.Max(c.DiskGB, o.DiskGB),
		BandwidthMbps: math.Max(c.BandwidthMbps, o.BandwidthMbps),
	}
}

// FitsIn reports whether c ≤ o in every dimension, within Epsilon.
func (c Capacity) FitsIn(o Capacity) bool {
	return c.CPU <= o.CPU+Epsilon &&
		c.MemoryMB <= o.MemoryMB+Epsilon &&
		c.DiskGB <= o.DiskGB+Epsilon &&
		c.BandwidthMbps <= o.BandwidthMbps+Epsilon
}

// Epsilon is the tolerance used for capacity comparisons: quantities that
// differ by less than Epsilon are considered equal. Resource quantities in
// the paper are small integers or simple decimals, so a fixed absolute
// tolerance suffices.
const Epsilon = 1e-9

// IsZero reports whether every dimension is zero (within Epsilon).
func (c Capacity) IsZero() bool {
	return math.Abs(c.CPU) <= Epsilon &&
		math.Abs(c.MemoryMB) <= Epsilon &&
		math.Abs(c.DiskGB) <= Epsilon &&
		math.Abs(c.BandwidthMbps) <= Epsilon
}

// IsNonNegative reports whether no dimension is below −Epsilon.
func (c Capacity) IsNonNegative() bool {
	return c.CPU >= -Epsilon &&
		c.MemoryMB >= -Epsilon &&
		c.DiskGB >= -Epsilon &&
		c.BandwidthMbps >= -Epsilon
}

// Equal reports whether c and o match in every dimension within Epsilon.
func (c Capacity) Equal(o Capacity) bool {
	return math.Abs(c.CPU-o.CPU) <= Epsilon &&
		math.Abs(c.MemoryMB-o.MemoryMB) <= Epsilon &&
		math.Abs(c.DiskGB-o.DiskGB) <= Epsilon &&
		math.Abs(c.BandwidthMbps-o.BandwidthMbps) <= Epsilon
}

// String renders the non-zero dimensions, e.g.
// "cpu=10 memory-mb=2048 disk-gb=15", or "empty".
func (c Capacity) String() string {
	var arr [128]byte
	if buf := c.AppendText(arr[:0]); string(buf) != "empty" {
		return string(buf)
	}
	return "empty"
}

// AppendText appends String's text to dst.
//
// Activity-log lines render a capacity on every session, so the text is
// appended into the caller's buffer: each value is strconv's shortest 'g'
// form, which is byte for byte what fmt's %g prints.
func (c Capacity) AppendText(dst []byte) []byte {
	start := len(dst)
	for _, k := range Kinds {
		if v := c.Get(k); math.Abs(v) > Epsilon {
			if len(dst) > start {
				dst = append(dst, ' ')
			}
			dst = append(dst, k.String()...)
			dst = append(dst, '=')
			dst = strconv.AppendFloat(dst, v, 'g', -1, 64)
		}
	}
	if len(dst) == start {
		return append(dst, "empty"...)
	}
	return dst
}

// Nodes is shorthand for a CPU-only capacity of n processor nodes.
func Nodes(n float64) Capacity { return Capacity{CPU: n} }

// Bandwidth is shorthand for a bandwidth-only capacity of m Mbps.
func Bandwidth(m float64) Capacity { return Capacity{BandwidthMbps: m} }
