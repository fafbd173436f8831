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
	"gqosm/internal/faultx"
	"gqosm/internal/gara"
	"gqosm/internal/gram"
	"gqosm/internal/mds"
	"gqosm/internal/nrm"
	"gqosm/internal/obs"
	"gqosm/internal/registry"
	"gqosm/internal/resource"
)

// Epoch is the simulated start of every experiment: the Monday of the
// Middleware 2003 conference week.
var Epoch = time.Date(2003, 6, 16, 9, 0, 0, 0, time.UTC)

// ClusterConfig sizes a simulated single-domain deployment.
type ClusterConfig struct {
	// Plan is the Algorithm-1 partition (required).
	Plan core.CapacityPlan
	// Domain names the broker's administrative domain; default "site-a".
	// The multi-broker harness gives each member its own domain so SLA
	// IDs stay globally unique and federation can tell the sites apart.
	Domain string
	// ServiceCapacity, when non-zero, overrides the capacity the default
	// catch-all "simulation" service advertises (the multi-broker
	// harness advertises the CLUSTER-wide total on every member so
	// discovery admits requests whose fate the allocator must decide).
	ServiceCapacity resource.Capacity
	// Services to pre-register for discovery; when empty a catch-all
	// "simulation" service advertising the plan's total capacity is
	// registered.
	Services []registry.Service
	// WithNetwork adds the §5.6 three-site topology (site-a/b/c with a
	// 1000 Mbps B–A link and a 100 Mbps C–A link).
	WithNetwork bool
	// ConfirmWindow for offers; default 2 minutes.
	ConfirmWindow time.Duration
	// MinOptimizerGain forwarded to the broker.
	MinOptimizerGain float64
	// Shards forwarded to the broker (0 or 1 keeps the classic monolithic
	// domain; N > 1 splits the plan into N per-shard allocators behind the
	// placement layer).
	Shards int
	// DisableCaches forwarded to the broker: turns the hot-path caches
	// (discovery) off for A/B measurement. Default off = caches on.
	DisableCaches bool
	// Obs receives the cluster's metrics; nil lets the broker create a
	// private registry (reachable via Cluster.Obs).
	Obs *obs.Registry
	// Faults, when non-nil, is installed on every substrate (GARA
	// managers, NRM, GRAM) and on the broker's RM-facing call sites.
	// Nil assembles the historical fault-free cluster.
	Faults *faultx.Injector
	// RMPolicy bounds the broker's RM-facing calls; the zero value is
	// the historical single direct attempt.
	RMPolicy core.RetryPolicy
	// Clock, when non-nil, drives the cluster instead of a fresh manual
	// clock at the Epoch. The chaos harness passes the clock its fault
	// injector was built on, so crash-recovery windows and session
	// lifecycles advance together.
	Clock *clockx.Manual
	// WAL, when its Dir is set, makes the broker durable: lifecycle
	// records journal to the directory and RecoverBroker can rebuild the
	// broker after a crash. The zero value keeps the historical
	// in-memory broker.
	WAL core.DurabilityConfig
	// Intake forwarded to the broker: enables the group-commit intake
	// queue (Submit/FlushIntake; RequestService then leads or rides a
	// flush). The zero value admits inline.
	Intake core.IntakeConfig
	// Policy forwarded to the broker: names the adaptation policy
	// ("" = "paper").
	Policy string
	// ShadowPolicy forwarded to the broker: names the candidate policy
	// consulted in shadow at every decision point.
	ShadowPolicy string
}

// Cluster is an assembled in-process G-QoSM deployment: the Fig. 5
// testbed driven by a manual clock.
type Cluster struct {
	Clock    *clockx.Manual
	Broker   *core.Broker
	Pool     *resource.Pool
	Topo     *nrm.Topology
	NetMgr   *nrm.Manager
	Registry *registry.Registry
	MDS      *mds.Directory
	GRAM     *gram.Manager
	GARA     *gara.System
	Obs      *obs.Registry

	// brokerCfg is the exact core.Config the broker was assembled with,
	// kept so RecoverBroker can rebuild a replacement against the same
	// surviving substrates.
	brokerCfg core.Config
}

// NewCluster assembles a cluster at the Epoch.
func NewCluster(cfg ClusterConfig) (*Cluster, error) {
	clock := cfg.Clock
	if clock == nil {
		clock = clockx.NewManual(Epoch)
	}
	domain := cfg.Domain
	if domain == "" {
		domain = "site-a"
	}
	total := cfg.Plan.Total()
	pool := resource.NewPool("machine", total)

	var (
		topo   *nrm.Topology
		netMgr *nrm.Manager
	)
	g := gara.NewSystem()
	g.RegisterManager(gara.WrapManager(gara.NewComputeManager(pool), cfg.Faults))
	if cfg.WithNetwork {
		topo = nrm.NewTopology()
		for _, d := range []struct{ name, cidr string }{
			{"site-a", "192.200.168.0/24"},
			{"site-b", "135.200.50.0/24"},
			{"site-c", "10.10.0.0/16"},
		} {
			if err := topo.AddDomain(d.name, d.cidr); err != nil {
				return nil, err
			}
		}
		if err := topo.AddLink("site-a", "site-b", 1000); err != nil {
			return nil, err
		}
		if err := topo.AddLink("site-a", "site-c", 100); err != nil {
			return nil, err
		}
		netMgr = nrm.NewManager("site-a", topo)
		netMgr.InjectFaults(cfg.Faults)
		g.RegisterManager(gara.WrapManager(gara.NewNetworkManager(netMgr), cfg.Faults))
	}

	reg := registry.New(clock)
	services := cfg.Services
	if len(services) == 0 {
		adv := total
		if !cfg.ServiceCapacity.IsZero() {
			adv = cfg.ServiceCapacity
		}
		services = []registry.Service{{
			Name:     "simulation",
			Provider: domain,
			Properties: []registry.Property{
				registry.NumProp("cpu-nodes", adv.CPU),
				registry.NumProp("memory-mb", adv.MemoryMB),
				registry.NumProp("disk-gb", adv.DiskGB),
				registry.NumProp("bandwidth-mbps", 1000),
			},
		}}
	}
	for _, s := range services {
		if _, err := reg.Register(s); err != nil {
			return nil, err
		}
	}

	dir := mds.NewDirectory()
	if err := dir.Register("machine", func() mds.Attributes {
		now := clock.Now()
		return mds.Attributes{
			"cpu-total": fmt.Sprintf("%g", pool.Total().CPU),
			"cpu-free":  fmt.Sprintf("%g", pool.Available(now).CPU),
		}
	}); err != nil {
		return nil, err
	}

	gramM := gram.NewManager(clock)
	gramM.InjectFaults(cfg.Faults)

	brokerCfg := core.Config{
		Domain:           domain,
		Clock:            clock,
		Plan:             cfg.Plan,
		Registry:         reg,
		GARA:             g,
		GRAM:             gramM,
		NRM:              netMgr,
		MDS:              dir,
		ConfirmWindow:    cfg.ConfirmWindow,
		MinOptimizerGain: cfg.MinOptimizerGain,
		Shards:           cfg.Shards,
		DisableCaches:    cfg.DisableCaches,
		Obs:              cfg.Obs,
		Faults:           cfg.Faults,
		RMPolicy:         cfg.RMPolicy,
		Durability:       cfg.WAL,
		Intake:           cfg.Intake,
		Policy:           cfg.Policy,
		ShadowPolicy:     cfg.ShadowPolicy,
	}
	broker, err := core.NewBroker(brokerCfg)
	if err != nil {
		return nil, err
	}
	metrics := broker.Obs()
	// Recovered brokers must report into the SAME registry so counters
	// accumulate across restarts.
	brokerCfg.Obs = metrics
	g.Instrument(metrics)
	gramM.Instrument(metrics)
	if netMgr != nil {
		netMgr.Instrument(metrics)
	}
	return &Cluster{
		Clock:     clock,
		Broker:    broker,
		Pool:      pool,
		Topo:      topo,
		NetMgr:    netMgr,
		Registry:  reg,
		MDS:       dir,
		GRAM:      gramM,
		GARA:      g,
		Obs:       metrics,
		brokerCfg: brokerCfg,
	}, nil
}

// RecoverBroker rebuilds the broker from the cluster's WAL directory —
// the surviving substrates (pool, GARA, NRM, GRAM, registry, clock) are
// reused, exactly as a restarted broker process would find them. The
// dead broker must have been stopped with Crash (or Close) first.
func (c *Cluster) RecoverBroker() (*core.RecoverStats, error) {
	b, stats, err := core.Recover(c.brokerCfg)
	if err != nil {
		return nil, err
	}
	c.Broker = b
	return stats, nil
}

// Close shuts the cluster down.
func (c *Cluster) Close() {
	c.Broker.Close()
	c.GRAM.Close()
}
