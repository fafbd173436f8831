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

// Failed is the one gate: a violation, a false gate, or a failed child —
// at any depth — and nothing else.
func TestReportFailed(t *testing.T) {
	leaf := func() *Report { return NewReport("leaf", nil, nil) }
	nest := func(r *Report) *Report {
		return NewReport("top", nil, map[string]*Report{"mid": NewReport("mid", nil, map[string]*Report{"leaf": r})})
	}
	if nest(leaf()).Failed() {
		t.Error("a clean tree failed")
	}
	violated := leaf()
	violated.Oracle.Violations = 1
	gated := leaf()
	gated.Oracle.Gates["stable"] = false
	for name, r := range map[string]*Report{"violation": violated, "false gate": gated} {
		if !r.Failed() || !nest(r).Failed() {
			t.Errorf("%s: Failed() = %v alone, %v two levels down; want true, true", name, r.Failed(), nest(r).Failed())
		}
	}
	if top := nest(violated); top.Oracle.Violations != 1 {
		t.Errorf("composite violations = %d, want the children's sum 1", top.Oracle.Violations)
	}
}
