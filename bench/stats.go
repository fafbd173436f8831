package main

import (
	"math"
	"sort"
)

// quantileSorted returns the q-quantile of an ascending slice by linear
// interpolation; 0 for an empty slice.
func quantileSorted(s []float64, q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(s)-1)
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(vs []float64) float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	return quantileSorted(s, 0.5)
}

// quartiles returns Q1 and Q3 as Python's statistics.quantiles(v, n=4)
// (the exclusive method) computes them — the driver uses that function.
func quartiles(vs []float64) (q1, q3 float64) {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	if len(s) < 2 {
		return median(s), median(s)
	}
	at := func(i int) float64 {
		m := len(s) + 1
		j := min(max(i*m/4, 1), len(s)-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// latency keeps one stage's timings, in microseconds. float32 holds a
// ten-second stall to the microsecond and halves what the harness adds to
// the heap it measures.
type latency struct{ us []float32 }

func (l *latency) add(us float64) { l.us = append(l.us, float32(us)) }

// summary returns the run's p50 and p99 and the sample count.
func (l *latency) summary() (p50, p99 float64, n int) {
	s := make([]float64, len(l.us))
	for i, v := range l.us {
		s[i] = float64(v)
	}
	sort.Float64s(s)
	return quantileSorted(s, 0.50), quantileSorted(s, 0.99), len(s)
}
