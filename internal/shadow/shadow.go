// Package shadow is the counterfactual policy lab: it evaluates a
// candidate adaptation policy against the deterministic scenario library
// with zero blast radius. For each scenario it runs the seeded workload
// three times — the active "paper" policy alone, the active policy with
// the candidate consulted in shadow at every partition grant, and the
// candidate as the active policy — then reports how often the candidate
// diverged, admit-rate/revenue/utilization deltas, and an oracle
// verdict that includes the shadow-inertness rule: the shadow-on run must
// be digest-identical to the shadow-off run, proving shadow evaluation
// never touched live state.
package shadow

import (
	"fmt"
	"strings"

	"gqosm/internal/core"
	"gqosm/internal/invariant"
	"gqosm/internal/obs"
	"gqosm/internal/sim"
)

// Config sizes a shadow evaluation.
type Config struct {
	// Candidate names the policy under evaluation (required).
	Candidate string
	// Seed / Ops / Shards are forwarded to every scenario run.
	Seed   int64
	Ops    int
	Shards int
}

func (cfg Config) doc() map[string]any {
	return map[string]any{"shadow": cfg.Candidate, "seed": cfg.Seed, "ops": cfg.Ops, "shards": cfg.Shards}
}

// digest hashes what a scenario run did and found — its outcome and
// oracle. The runs' configs differ by design (one names the shadow
// policy), so the reports' own digests cannot be compared.
func digest(r *sim.Report) string { return sim.Hash(r.Outcome, r.Oracle) }

// observedRun replays one scenario and samples mean allocator CPU
// utilization across the quiesce phases.
func observedRun(sc sim.Scenario, cfg sim.ScenarioConfig) (*sim.Report, float64, error) {
	var sum float64
	var n int
	rep, err := sim.RunScenario(sc, cfg, func(run *sim.ScenarioRun, phase int) {
		for _, a := range run.Cluster.Broker.Allocators() {
			sum += a.Utilization().CPU
			n++
		}
	})
	if err != nil {
		return nil, 0, err
	}
	var util float64
	if n > 0 {
		util = sum / float64(n)
	}
	return rep, util, nil
}

func delta(active, candidate float64) sim.Delta {
	return sim.Delta{Active: active, Candidate: candidate, Delta: candidate - active}
}

// Evaluate runs one scenario's three-way comparison. The report nests the
// three runs (active, shadow, candidate) and carries the comparison in
// its outcome's shadow block; its shadow_clean gate is the inertness
// verdict.
func Evaluate(sc sim.Scenario, cfg Config) (*sim.Report, error) {
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
	evals, diverged := core.ShadowCounts(shadowObs)

	// Run 3: the counterfactual — the candidate as the active policy over
	// the identical seeded workload.
	candCfg := base
	candCfg.Policy = cfg.Candidate
	candRep, candUtil, err := observedRun(sc, candCfg)
	if err != nil {
		return nil, fmt.Errorf("shadow: %s counterfactual run: %w", sc.Name, err)
	}

	doc := cfg.doc()
	doc["scenario"] = sc.Name
	rep := sim.NewReport("scenario", doc,
		map[string]*sim.Report{"active": activeRep, "shadow": shadowRep, "candidate": candRep})
	sh := &sim.Shadow{
		Candidate:    cfg.Candidate,
		Evaluations:  evals,
		Divergence:   map[string]int64{"partition": diverged},
		ActiveDigest: digest(activeRep),
		ShadowDigest: digest(shadowRep),
		AdmitRate:    delta(activeRep.Outcome.AdmitRate, candRep.Outcome.AdmitRate),
		Revenue:      delta(activeRep.Outcome.Revenue, candRep.Outcome.Revenue),
		Utilization:  delta(activeUtil, candUtil),
	}
	rep.Outcome.Shadow = sh
	err = invariant.CheckShadowInert(sh.ActiveDigest, sh.ShadowDigest)
	if rep.Oracle.Gates["shadow_clean"] = err == nil; err != nil {
		rep.Oracle.Violations++
		rep.Oracle.Details = append(rep.Oracle.Details, err.Error())
	}
	return rep.Seal(), nil
}

// Run evaluates the candidate over every given scenario; the report nests
// one Evaluate report per scenario name.
func Run(scenarios []sim.Scenario, cfg Config) (*sim.Report, error) {
	if len(scenarios) == 0 {
		return nil, fmt.Errorf("shadow: no scenarios to evaluate")
	}
	runs := make(map[string]*sim.Report, len(scenarios))
	for _, sc := range scenarios {
		rep, err := Evaluate(sc, cfg)
		if err != nil {
			return nil, err
		}
		runs[sc.Name] = rep
	}
	return sim.NewReport("scenario", cfg.doc(), runs).Seal(), nil
}
