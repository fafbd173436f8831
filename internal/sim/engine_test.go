package sim

import "testing"

// percentile is nearest-rank: the ⌈p·n⌉-th smallest value. The n=10,
// p=0.23 row is where the retired round-half-up variant
// (int(p·n+0.5)−1) disagreed — it read the 2nd value, not the 3rd.
func TestPercentileNearestRank(t *testing.T) {
	ten := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, tc := range []struct {
		name   string
		sorted []float64
		p      float64
		want   float64
	}{
		{"empty", nil, 0.95, 0},
		{"single", []float64{42}, 0.5, 42},
		{"p0 clamps to the minimum", ten, 0, 1},
		{"p1 is the maximum", ten, 1, 10},
		{"median of ten", ten, 0.5, 5},
		{"p95 of ten", ten, 0.95, 10},
		{"p23 of ten rounds the rank up", ten, 0.23, 3},
		{"p95 of three restarts", []float64{10, 20, 30}, 0.95, 30},
		{"exact rank boundary", []float64{1, 2, 3, 4}, 0.75, 3},
	} {
		if got := percentile(tc.sorted, tc.p); got != tc.want {
			t.Errorf("%s: percentile(%v, %v) = %v, want %v", tc.name, tc.sorted, tc.p, got, tc.want)
		}
	}
}
