package sim

import (
	"fmt"
	"slices"
)

// This file is the long-run soak configuration: RunSoak replays a scenario
// for a large number of broker operations on the virtual clock with the
// working set bounded (terminal-state pruning plus ledger retention), and
// counts that working set at every quiesce window: the sessions the broker
// holds, the GARA reservations, the ledger entries and the timers armed on
// the clock. The oracle still runs continuously; on top of it the stable
// gate asserts every count stays bounded. The counts are a function of the
// run, so they sit under the outcome ("soak"). The process-health checks
// (goroutines, heap, a flat per-window time) read the runtime and the
// wall clock, so they live in the soak tests, which sample them through
// the same window hook.

// The sampling cadence and the stability verdict's bounds.
const (
	// soakWindows is the number of sampling windows, the run's quiesce
	// points.
	soakWindows = 40
	// soakLedgerRetention bounds the broker ledger's entry window
	// (aggregates stay exact across eviction).
	soakLedgerRetention = 4096
	// soakGrowthFactor bounds each count's maximum over the run's second
	// half against its first-half maximum. A count that grows with the
	// operations performed (a leak) doubles between the halves; a bounded
	// one does not grow at all once the load has reached steady state.
	soakGrowthFactor = 1.5
	// soakGrowthFloor absorbs the churn of counts that stay tiny. The
	// ledger's floor is its own bound instead: it trims back to its
	// retention once it holds twice as many entries, so a run too short
	// to reach that bound is still filling it.
	soakGrowthFloor = 64
)

// SoakTally is the soak's working set, one entry per window, counted
// after the window's prune.
type SoakTally struct {
	Sessions      []int `json:"sessions"`       // in the broker's session table
	Reservations  []int `json:"reservations"`   // held by GARA
	LedgerEntries []int `json:"ledger_entries"` // retained by the ledger
	Timers        []int `json:"timers"`         // armed on the clock
}

// RunSoak replays the scenario in long-run mode: working set bounded,
// counted per window, stability asserted. A non-nil error means the
// harness itself failed; oracle violations, assertion failures and
// instability land in the report.
func RunSoak(sc Scenario, cfg ScenarioConfig) (*Report, error) { return soak(sc, cfg, nil) }

// soak is RunSoak with observe, when non-nil, called at every window
// after the working set is counted.
func soak(sc Scenario, cfg ScenarioConfig, observe func(window int)) (*Report, error) {
	run, err := newScenarioRun(sc, cfg, soakWindows)
	if err != nil {
		return nil, err
	}
	defer run.engine.topo.close()
	run.config["soak"] = true
	// Bound the working set: terminal state (broker sessions, GARA
	// reservations, GRAM jobs) is compacted at every window, the ledger
	// keeps a fixed entry window.
	run.engine.prune = true
	c := run.Cluster
	c.Broker.Ledger().SetRetention(soakLedgerRetention)

	ws := &SoakTally{}
	run.engine.onQuiesce = func(window int) {
		ws.Sessions = append(ws.Sessions, len(c.Broker.SessionInfos()))
		ws.Reservations = append(ws.Reservations, len(c.GARA.Reservations()))
		ws.LedgerEntries = append(ws.LedgerEntries, len(c.Broker.Ledger().Entries()))
		ws.Timers = append(ws.Timers, run.Clock.PendingTimers())
		if observe != nil {
			observe(window)
		}
	}

	rep, err := run.play()
	if err != nil {
		return nil, err
	}
	rep.Outcome.Soak = ws
	problems := ws.judge()
	rep.Oracle.Gates["stable"] = len(problems) == 0
	rep.Oracle.Details = append(rep.Oracle.Details, problems...)
	return rep.Seal(), nil
}

// judge returns what breaks the stability verdict (nothing when every
// count stayed bounded).
func (ws *SoakTally) judge() (problems []string) {
	if len(ws.Sessions) < 2 {
		return []string{"soak: fewer than two sampling windows"}
	}
	for _, c := range []struct {
		name   string
		counts []int
		floor  int
	}{
		{"sessions", ws.Sessions, soakGrowthFloor},
		{"reservations", ws.Reservations, soakGrowthFloor},
		{"ledger entries", ws.LedgerEntries, 2 * soakLedgerRetention},
		{"timers", ws.Timers, soakGrowthFloor},
	} {
		half := len(c.counts) / 2
		first, last := slices.Max(c.counts[:half]), slices.Max(c.counts[half:])
		if lim := int(soakGrowthFactor * float64(max(first, c.floor))); last > lim {
			problems = append(problems,
				fmt.Sprintf("soak: %s grew to %d in the second half from at most %d in the first (limit %d): working set unbounded",
					c.name, last, first, lim))
		}
	}
	return problems
}
