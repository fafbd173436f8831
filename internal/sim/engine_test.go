package sim

import "testing"

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
