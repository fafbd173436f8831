// Package sim provides the discrete-event simulation harness behind the
// repository's experiments: a single-domain G-QoSM cluster assembled from
// all substrates, deterministic synthetic workloads (the stand-in for the
// paper's testbed traffic), and runners that regenerate every experiment
// in DESIGN.md's index (E56, C1–C5 and the ablations).
package sim

import (
	"fmt"
	"time"

	"gqosm/internal/clockx"
	"gqosm/internal/core"
	"gqosm/internal/registry"
	"gqosm/internal/resource"
	"gqosm/internal/stack"
)

// Epoch is the simulated start of every experiment: the Monday of the
// Middleware 2003 conference week.
var Epoch = time.Date(2003, 6, 16, 9, 0, 0, 0, time.UTC)

// Cluster is the Fig. 5 deployment as aqosd runs it (stack.New), driven
// by a manual clock.
type Cluster struct {
	*stack.Stack
	// Clock is the stack's clock, typed so a harness can advance it.
	Clock *clockx.Manual
}

// NewCluster fills the simulation's defaults — a manual clock at the Epoch
// (cfg.Clock, when set, must be a *clockx.Manual: the chaos harness passes
// the one its fault injector runs on) and the catch-all advert — and
// assembles the stack. A WAL directory that already holds state is refused
// where stack.New would recover it: a run replayed on top of recovered
// sessions cannot be deterministic.
func NewCluster(cfg stack.Config) (*Cluster, error) {
	if cfg.Clock == nil {
		cfg.Clock = clockx.NewManual(Epoch)
	}
	clock, ok := cfg.Clock.(*clockx.Manual)
	if !ok {
		return nil, fmt.Errorf("sim: cluster clock is a %T, want *clockx.Manual", cfg.Clock)
	}
	if cfg.WALDir != "" && core.HasWALState(cfg.WALDir) {
		return nil, fmt.Errorf("sim: WAL directory %s already holds state", cfg.WALDir)
	}
	if cfg.Domain == "" {
		cfg.Domain = "site-a"
	}
	if len(cfg.Services) == 0 {
		cfg.Services = catchAll(cfg.Domain, cfg.Plan.Total())
	}
	s, err := stack.New(cfg)
	if err != nil {
		return nil, err
	}
	return &Cluster{Stack: s, Clock: clock}, nil
}

// catchAll is the simulation's advert: adv on a 1000 Mbps link. Members of
// a multi-broker run advertise the CLUSTER total, so discovery admits any
// request the cluster could serve and the allocator (and the federation
// fallback) decides.
func catchAll(provider string, adv resource.Capacity) []registry.Service {
	adv.BandwidthMbps = 1000
	return stack.CatchAll(provider, adv)
}
