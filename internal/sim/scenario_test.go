package sim

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
	"time"

	"gqosm/internal/sla"
)

// shapedTrace generates a scenario's trace exactly as the driver does:
// workload seeded with seed, Shape applied with the seed+1 stream.
func shapedTrace(t *testing.T, sc Scenario, cfg ScenarioConfig, seed int64) []Arrival {
	t.Helper()
	cfg.Seed = seed
	cfg = cfg.withDefaults()
	wl := sc.Workload(cfg)
	wl.Seed = seed
	trace := wl.Trace()
	if sc.Shape != nil {
		rng := rand.New(rand.NewSource(seed + 1))
		for i := range trace {
			trace[i] = sc.Shape(cfg, rng, i, trace[i])
		}
	}
	return trace
}

// Satellite 1: table-driven shape checks on every scenario's trace, with
// fixed seeds, plus per-seed determinism of the trace itself.
func TestScenarioTraceShapes(t *testing.T) {
	cfg := ScenarioConfig{Ops: 6000}
	for _, seed := range []int64{1, 7} {
		for _, sc := range Scenarios() {
			sc := sc
			t.Run(sc.Name, func(t *testing.T) {
				trace := shapedTrace(t, sc, cfg, seed)
				if len(trace) < 100 {
					t.Fatalf("trace too small: %d arrivals", len(trace))
				}
				again := shapedTrace(t, sc, cfg, seed)
				if len(again) != len(trace) {
					t.Fatalf("nondeterministic trace: %d vs %d arrivals", len(trace), len(again))
				}
				for i := range trace {
					if trace[i] != again[i] {
						t.Fatalf("nondeterministic trace at %d: %+v vs %+v", i, trace[i], again[i])
					}
				}

				switch sc.Name {
				case "diurnal":
					// Peak half-day (06–18h of each period) must carry at
					// least twice the trough half's arrivals.
					var peak, trough float64
					for _, a := range trace {
						if h := math.Mod(a.At.Hours(), 24); h >= 6 && h < 18 {
							peak++
						} else {
							trough++
						}
					}
					if trough == 0 || peak/trough < 2 {
						t.Errorf("diurnal peak/trough = %.0f/%.0f, want ratio >= 2", peak, trough)
					}
				case "flash-crowd":
					_, spikeStart, spikeEnd := flashTimes(cfg.withDefaults())
					var before, spike float64
					for _, a := range trace {
						switch {
						case a.At < spikeStart:
							before++
						case a.At < spikeEnd:
							spike++
						}
					}
					perHourBefore := before / spikeStart.Hours()
					if spike < 30*perHourBefore {
						t.Errorf("spike hour = %.0f arrivals vs %.1f/h before: ratio < 30", spike, perHourBefore)
					}
				case "tenant-mix":
					var whales, total float64
					for _, a := range trace {
						total++
						if a.Nodes >= 10 {
							whales++
							if a.Class != sla.ClassGuaranteed {
								t.Errorf("whale arrival has class %v", a.Class)
							}
						} else if a.Nodes > 2 {
							t.Errorf("minnow arrival with %v nodes", a.Nodes)
						}
					}
					if frac := whales / total; frac < 0.05 || frac > 0.16 {
						t.Errorf("whale fraction %.3f outside [0.05, 0.16]", frac)
					}
				case "reneg-storm":
					var cl float64
					for _, a := range trace {
						if a.Class == sla.ClassControlledLoad {
							cl++
						}
					}
					if frac := cl / float64(len(trace)); frac < 0.7 {
						t.Errorf("controlled-load fraction %.3f, want >= 0.7", frac)
					}
				case "lease-churn":
					var mean time.Duration
					for _, a := range trace {
						mean += a.Hold
					}
					mean /= time.Duration(len(trace))
					if mean > 10*time.Minute {
						t.Errorf("mean hold %v too long for lease churn", mean)
					}
				case "economic":
					var negotiated float64
					for _, a := range trace {
						if a.Class != sla.ClassBestEffort {
							negotiated++
						}
					}
					if frac := negotiated / float64(len(trace)); frac < 0.8 {
						t.Errorf("negotiated fraction %.3f, want >= 0.8", frac)
					}
				}
			})
		}
	}
}

func runQuick(t *testing.T, sc Scenario, seed int64) *Report {
	t.Helper()
	r, err := RunScenario(sc, ScenarioConfig{Seed: seed, Ops: 3000})
	if err != nil {
		t.Fatalf("%s: %v", sc.Name, err)
	}
	return r
}

// Every scenario must pass its own Verify with zero oracle violations,
// and two runs with the same seed must produce byte-identical
// deterministic reports.
func TestRunScenarioQuickAndDeterministic(t *testing.T) {
	for _, sc := range Scenarios() {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			r1 := runQuick(t, sc, 1)
			if r1.Oracle.Violations != 0 || !r1.Oracle.Gates["verified"] || r1.Failed() {
				t.Errorf("oracle violations or failed scenario assertions: %+v", r1.Oracle)
			}
			if r1.Outcome.Ops == 0 || r1.Outcome.Requested == 0 {
				t.Fatalf("degenerate run: %s", stripped(t, r1))
			}

			r2 := runQuick(t, sc, 1)
			if j1, j2 := stripped(t, r1), stripped(t, r2); !bytes.Equal(j1, j2) || r1.Digest != r2.Digest {
				t.Errorf("nondeterministic report:\n%s\nvs\n%s", j1, j2)
			}

			// A different seed must still pass but produce a different
			// trace (sanity that the seed is actually threaded through).
			r3 := runQuick(t, sc, 7)
			if r3.Failed() {
				t.Errorf("seed 7 failed: %+v", r3.Oracle)
			}
			if r3.Outcome.Scenario.Arrivals == r1.Outcome.Scenario.Arrivals && r3.Outcome.Revenue == r1.Outcome.Revenue {
				t.Errorf("seed 7 report identical to seed 1: seed not threaded")
			}
		})
	}
}
