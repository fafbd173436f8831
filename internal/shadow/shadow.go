// Package shadow is the counterfactual policy lab: it evaluates a
// candidate adaptation policy against the deterministic scenario library
// with zero blast radius. For each scenario it runs the seeded workload
// three times — the active "paper" policy alone, the active policy with
// the candidate consulted in shadow at every decision point, and the
// candidate as the active policy — then reports per-family decision
// divergence, admit-rate/revenue/utilization deltas, and an oracle
// verdict that includes the shadow-inertness rule: the shadow-on run must
// be digest-identical to the shadow-off run, proving shadow evaluation
// never touched live state.
package shadow

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strings"

	"gqosm/internal/core"
	"gqosm/internal/invariant"
	"gqosm/internal/obs"
	"gqosm/internal/sim"
)

// Schema identifies the report format for CI gates.
const Schema = "bench_shadow/v1"

// Config sizes a shadow evaluation.
type Config struct {
	// Candidate names the registered policy under evaluation (required).
	Candidate string
	// Seed / Ops / Shards are forwarded to every scenario run.
	Seed   int64
	Ops    int
	Shards int
}

// Delta is one metric compared across the active and counterfactual runs.
type Delta struct {
	Active    float64 `json:"active"`
	Candidate float64 `json:"candidate"`
	Delta     float64 `json:"delta"`
}

// ScenarioResult is one scenario's shadow evaluation.
type ScenarioResult struct {
	// Evaluations counts shadow consultations; Divergence counts, per
	// decision family, how often the candidate's answer differed.
	Evaluations int64            `json:"evaluations"`
	Divergence  map[string]int64 `json:"divergence"`
	// ShadowClean is the shadow-inertness verdict: the shadow-on run
	// produced exactly the shadow-off run's report digest.
	ShadowClean  bool   `json:"shadow_clean"`
	ActiveDigest string `json:"active_digest"`
	ShadowDigest string `json:"shadow_digest"`
	// InvariantViolations aggregates the oracle across all three runs,
	// plus the shadow-inertness rule.
	InvariantViolations int      `json:"invariant_violations"`
	Violations          []string `json:"violations,omitempty"`
	// Counterfactual deltas: candidate-as-active vs. the active run.
	AdmitRate   Delta `json:"admit_rate"`
	Revenue     Delta `json:"revenue"`
	Utilization Delta `json:"utilization"`
	// Verdict is "ok", or the first failing rule.
	Verdict string `json:"verdict"`
}

// Report is the bench_shadow/v1 document gridsim -shadow emits. It
// contains no wall-clock fields, so two runs at the same (candidate,
// seed, ops, shards) are byte-identical.
type Report struct {
	Schema              string                     `json:"schema"`
	Candidate           string                     `json:"candidate"`
	Seed                int64                      `json:"seed"`
	Ops                 int                        `json:"ops"`
	Shards              int                        `json:"shards"`
	Scenarios           map[string]*ScenarioResult `json:"scenarios"`
	InvariantViolations int                        `json:"invariant_violations"`
	Verdict             string                     `json:"verdict"`
}

// Failed reports whether CI should go red on this report.
func (r *Report) Failed() bool { return r.Verdict != "ok" }

// Digest hashes the deterministic portion of a scenario report (Latency,
// the only wall-clock block, is excluded — the same field CI strips with
// jq 'del(.latency)').
func Digest(r *sim.ScenarioReport) string {
	c := *r
	c.Latency = nil
	buf, err := json.Marshal(&c)
	if err != nil {
		// ScenarioReport is a plain data struct; Marshal cannot fail on
		// it short of memory corruption.
		panic(err)
	}
	sum := sha256.Sum256(buf)
	return hex.EncodeToString(sum[:8])
}

// observedRun replays one scenario and samples mean allocator CPU
// utilization across the quiesce phases.
func observedRun(sc sim.Scenario, cfg sim.ScenarioConfig) (*sim.ScenarioReport, float64, error) {
	var sum float64
	var n int
	rep, err := sim.RunScenario(sc, cfg, func(run *sim.ScenarioRun, phase int) {
		for _, a := range run.Cluster.Broker.Allocators() {
			sum += a.Utilization().CPU
			n++
		}
	})
	if err != nil {
		return rep, 0, err
	}
	var util float64
	if n > 0 {
		util = sum / float64(n)
	}
	return rep, util, nil
}

func delta(active, candidate float64) Delta {
	return Delta{Active: active, Candidate: candidate, Delta: candidate - active}
}

// Evaluate runs one scenario's three-way comparison.
func Evaluate(sc sim.Scenario, cfg Config) (*ScenarioResult, error) {
	if _, ok := core.LookupPolicy(cfg.Candidate); !ok {
		return nil, fmt.Errorf("shadow: unknown candidate policy %q (registered: %s)",
			cfg.Candidate, strings.Join(core.PolicyNames(), ", "))
	}
	base := sim.ScenarioConfig{Seed: cfg.Seed, Ops: cfg.Ops, Shards: cfg.Shards}

	// Run 1: the active policy alone — the reference digest and the
	// active side of every counterfactual delta.
	activeRep, activeUtil, err := observedRun(sc, base)
	if err != nil {
		return nil, fmt.Errorf("shadow: %s active run: %w", sc.Name, err)
	}

	// Run 2: the active policy with the candidate in shadow. A fresh
	// registry isolates the divergence counters for post-run readback.
	shadowObs := obs.NewRegistry()
	shadowCfg := base
	shadowCfg.ShadowPolicy = cfg.Candidate
	shadowCfg.Obs = shadowObs
	shadowRep, _, err := observedRun(sc, shadowCfg)
	if err != nil {
		return nil, fmt.Errorf("shadow: %s shadow run: %w", sc.Name, err)
	}
	evals, divergence := core.ShadowCounts(shadowObs)

	// Run 3: the counterfactual — the candidate as the active policy over
	// the identical seeded workload.
	candCfg := base
	candCfg.Policy = cfg.Candidate
	candRep, candUtil, err := observedRun(sc, candCfg)
	if err != nil {
		return nil, fmt.Errorf("shadow: %s counterfactual run: %w", sc.Name, err)
	}

	sr := &ScenarioResult{
		Evaluations:  evals,
		Divergence:   divergence,
		ActiveDigest: Digest(activeRep),
		ShadowDigest: Digest(shadowRep),
		AdmitRate:    delta(activeRep.AdmitRate, candRep.AdmitRate),
		Revenue:      delta(activeRep.Revenue, candRep.Revenue),
		Utilization:  delta(activeUtil, candUtil),
	}
	if err := invariant.CheckShadowInert(sr.ActiveDigest, sr.ShadowDigest); err != nil {
		sr.Violations = append(sr.Violations, err.Error())
	} else {
		sr.ShadowClean = true
	}
	for _, rep := range []*sim.ScenarioReport{activeRep, shadowRep, candRep} {
		sr.InvariantViolations += rep.InvariantViolations
		sr.Violations = append(sr.Violations, rep.Violations...)
		sr.Violations = append(sr.Violations, rep.VerifyErrors...)
	}
	switch {
	case !sr.ShadowClean:
		sr.InvariantViolations++
		sr.Verdict = "shadow-mutated-state"
	case sr.InvariantViolations > 0:
		sr.Verdict = "invariant-violations"
	case len(sr.Violations) > 0:
		sr.Verdict = "verify-errors"
	default:
		sr.Verdict = "ok"
	}
	return sr, nil
}

// Run evaluates the candidate over every given scenario and aggregates
// the oracle verdict.
func Run(scenarios []sim.Scenario, cfg Config) (*Report, error) {
	if len(scenarios) == 0 {
		return nil, fmt.Errorf("shadow: no scenarios to evaluate")
	}
	rep := &Report{
		Schema:    Schema,
		Candidate: cfg.Candidate,
		Seed:      cfg.Seed,
		Ops:       cfg.Ops,
		Shards:    cfg.Shards,
		Scenarios: make(map[string]*ScenarioResult, len(scenarios)),
		Verdict:   "ok",
	}
	for _, sc := range scenarios {
		sr, err := Evaluate(sc, cfg)
		if err != nil {
			return nil, err
		}
		rep.Scenarios[sc.Name] = sr
		rep.InvariantViolations += sr.InvariantViolations
		if sr.Verdict != "ok" && rep.Verdict == "ok" {
			rep.Verdict = sr.Verdict
		}
	}
	return rep, nil
}
