// Package stack is the one assembly of the paper's Fig. 5 deployment: the
// AQoS broker wired to its UDDIe registry, GARA over the compute, network
// and DSRT managers, the NRM, MDS and GRAM. The root gqosm package
// re-exports it and internal/sim builds on it, so what the simulations
// verify is what aqosd runs (DESIGN.md §19, TestOneAssembly).
package stack

import (
	"fmt"
	"sync"
	"time"

	"gqosm/internal/clockx"
	"gqosm/internal/core"
	"gqosm/internal/dsrt"
	"gqosm/internal/faultx"
	"gqosm/internal/gara"
	"gqosm/internal/gram"
	"gqosm/internal/httpapi"
	"gqosm/internal/mds"
	"gqosm/internal/nrm"
	"gqosm/internal/obs"
	"gqosm/internal/registry"
	"gqosm/internal/resource"
	"gqosm/internal/sla"
	"gqosm/internal/soapx"
)

// Config sizes a complete single-domain G-QoSM deployment.
type Config struct {
	// Domain names the administrative domain, its compute pool and its
	// MDS resource (default "site-a"). Members of a multi-broker
	// deployment each need their own, so SLA IDs stay globally unique.
	Domain string
	// Plan is the capacity partition (required).
	Plan core.CapacityPlan
	// Clock defaults to the wall clock; inject a clockx.Manual for
	// deterministic runs.
	Clock clockx.Clock
	// Services to pre-register for discovery; when empty a catch-all
	// service named "simulation" advertising the full capacity is
	// registered.
	Services []registry.Service
	// Topology optionally provides a multi-domain network; when set, the
	// stack's NRM administers Domain within it.
	Topology *nrm.Topology
	// ConfirmWindow bounds how long offers hold temporary reservations
	// (default 2 minutes).
	ConfirmWindow time.Duration
	// MinOptimizerGain is the §5.5 "considerable gain" threshold for
	// applying optimizer reallocations (default 1.0).
	MinOptimizerGain float64
	// DSRTProcessors, when positive, runs service processes under a
	// DSRT soft-real-time CPU scheduler with that many processors: each
	// launched job gets a DSRT contract, and the broker tries RM-level
	// adaptation (share boosts) before AQoS-level adaptation on CPU
	// degradation (§3.2).
	DSRTProcessors int
	// MonitorInterval, when positive, starts a periodic QoS-management
	// monitor (NRM checks, session expiry, optimizer passes) at that
	// interval; Close stops it.
	MonitorInterval time.Duration
	// Obs receives metrics from every component; nil creates a private
	// registry, reachable via Stack.Obs. Mount serves it on /metrics.
	Obs *obs.Registry
	// Faults, when non-nil, is installed on every substrate (GARA
	// managers, GRAM, the NRM, DSRT, the SOAP server mux) and on the
	// broker's RM-facing call sites — the chaos-testing hook. Nil (the
	// default) injects nothing.
	Faults *faultx.Injector
	// RMPolicy bounds the broker's RM-facing calls; the zero value is
	// the historical single direct attempt with no timeout.
	RMPolicy core.RetryPolicy
	// WALDir, when set, makes the broker durable: lifecycle records
	// journal to a write-ahead log in that directory with a snapshot
	// every wal.DefSnapshotEvery records, and a restart with the same
	// WALDir recovers the dead broker's sessions, allocator book and
	// ledger, then reconciles reservations against the RMs. Empty keeps
	// the historical in-memory broker.
	WALDir string
	// Intake enables the group-commit admission intake: concurrent
	// RequestService calls (in-process, SOAP or JSON) queued behind the
	// same flush leader share one allocator pass and one WAL fsync. The
	// zero value admits each request inline on its caller's goroutine.
	Intake core.IntakeConfig
}

// Stack is an assembled single-domain deployment: the AQoS broker wired to
// all its substrates, ready for in-process use or for mounting on an HTTP
// server via Mount.
type Stack struct {
	Broker   *core.Broker
	Pool     *resource.Pool
	Registry *registry.Registry
	MDS      *mds.Directory
	GRAM     *gram.Manager
	GARA     *gara.System
	NRM      *nrm.Manager
	Clock    clockx.Clock
	// DSRT is the soft-real-time CPU scheduler when DSRTProcessors > 0.
	DSRT *dsrt.Scheduler
	// RM is the DSRT-backed RM-level adaptation hook, when enabled.
	RM *core.DSRTAdapter
	// Monitor is the periodic QoS-management driver, when enabled.
	Monitor *core.Monitor
	// Obs is the metrics registry shared by all components; Mount
	// serves it on /metrics.
	Obs *obs.Registry
	// Faults is the injector from Config, when one was installed;
	// Mount also arms it on the SOAP server mux.
	Faults *faultx.Injector
	// Recovery reports what crash recovery rebuilt and reconciled, when
	// WALDir held state from a previous run; nil on a fresh start.
	Recovery *core.RecoverStats

	// brokerCfg is what the broker was assembled with, for RecoverBroker.
	brokerCfg       core.Config
	monitorInterval time.Duration
}

// New assembles a deployment. A WALDir that already holds state makes the
// start a restart: the previous broker is recovered from it.
func New(cfg Config) (*Stack, error) {
	if cfg.Domain == "" {
		cfg.Domain = "site-a"
	}
	clock := cfg.Clock
	if clock == nil {
		clock = clockx.Real()
	}
	// One registry for the stack's whole life: a broker rebuilt by
	// RecoverBroker keeps counting where the dead one stopped.
	if cfg.Obs == nil {
		cfg.Obs = obs.NewRegistry()
	}
	total := cfg.Plan.Total()
	pool := resource.NewPool(cfg.Domain, total)

	g := gara.NewSystem()
	g.Instrument(cfg.Obs)
	g.RegisterManager(gara.WrapManager(gara.NewComputeManager(pool), cfg.Faults))

	var netMgr *nrm.Manager
	if cfg.Topology != nil {
		netMgr = nrm.NewManager(cfg.Domain, cfg.Topology)
		netMgr.InjectFaults(cfg.Faults)
		netMgr.Instrument(cfg.Obs)
		g.RegisterManager(gara.WrapManager(gara.NewNetworkManager(netMgr), cfg.Faults))
	}

	reg := registry.New(clock)
	services := cfg.Services
	if len(services) == 0 {
		services = CatchAll(cfg.Domain, total)
	}
	for _, svc := range services {
		if _, err := reg.Register(svc); err != nil {
			return nil, fmt.Errorf("stack: register service: %w", err)
		}
	}

	dir := mds.NewDirectory()
	if err := dir.Register(cfg.Domain, func() mds.Attributes {
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
	gramM.Instrument(cfg.Obs)

	var (
		sched   *dsrt.Scheduler
		adapter *core.DSRTAdapter
		rm      core.RMAdapter // stays an untyped nil without DSRT
	)
	if cfg.DSRTProcessors > 0 {
		sched = dsrt.New(dsrt.Config{Processors: cfg.DSRTProcessors}, nil)
		sched.InjectFaults(cfg.Faults)
		sched.Instrument(cfg.Obs)
		g.RegisterManager(gara.WrapManager(gara.NewDSRTManager(sched), cfg.Faults))
		adapter = core.NewDSRTAdapter(sched)
		rm = adapter
		// Run every launched service process under a DSRT contract: the
		// job's label carries the SLA ID, so degradations can be
		// rectified at the scheduler (RM) level first.
		attachJobs(gramM, sched, adapter, cfg.DSRTProcessors)
	}

	brokerCfg := core.Config{
		Domain:           cfg.Domain,
		Clock:            clock,
		Plan:             cfg.Plan,
		Registry:         reg,
		GARA:             g,
		GRAM:             gramM,
		NRM:              netMgr,
		MDS:              dir,
		RM:               rm,
		ConfirmWindow:    cfg.ConfirmWindow,
		MinOptimizerGain: cfg.MinOptimizerGain,
		Obs:              cfg.Obs,
		Faults:           cfg.Faults,
		RMPolicy:         cfg.RMPolicy,
		Durability:       core.DurabilityConfig{Dir: cfg.WALDir},
		Intake:           cfg.Intake,
	}
	s := &Stack{
		Pool:            pool,
		Registry:        reg,
		MDS:             dir,
		GRAM:            gramM,
		GARA:            g,
		NRM:             netMgr,
		Clock:           clock,
		DSRT:            sched,
		RM:              adapter,
		Obs:             cfg.Obs,
		Faults:          cfg.Faults,
		brokerCfg:       brokerCfg,
		monitorInterval: cfg.MonitorInterval,
	}
	var err error
	if cfg.WALDir != "" && core.HasWALState(cfg.WALDir) {
		s.Broker, s.Recovery, err = core.Recover(brokerCfg)
	} else {
		s.Broker, err = core.NewBroker(brokerCfg)
	}
	if err != nil {
		gramM.Close()
		return nil, err
	}
	if cfg.MonitorInterval > 0 {
		s.Monitor = core.NewMonitor(s.Broker, cfg.MonitorInterval)
		s.Monitor.Start()
	}
	return s, nil
}

// CatchAll is the default advert: one service named "simulation" offering
// adv from provider under the registry's advert property names.
func CatchAll(provider string, adv resource.Capacity) []registry.Service {
	props := make([]registry.Property, len(registry.Adverts))
	for i, a := range registry.Adverts {
		props[i] = registry.NumProp(a.Name, adv.Get(a.Kind))
	}
	return []registry.Service{{Name: "simulation", Provider: provider, Properties: props}}
}

// attachJobs subscribes to GRAM job transitions, giving every launched
// service process a DSRT contract and linking it to its session for
// RM-level adaptation; terminal jobs release their contracts.
func attachJobs(gramM *gram.Manager, sched *dsrt.Scheduler, adapter *core.DSRTAdapter, processors int) {
	var mu sync.Mutex
	contracts := make(map[gram.JobID]dsrt.PID)
	gramM.Subscribe(func(j gram.Job) {
		id := sla.ID(j.Label)
		if id == "" {
			return
		}
		switch {
		case j.State == gram.StateActive:
			// A modest default share; the DSRT adapter raises it on
			// demand when degradation is detected.
			share := 0.5 / float64(processors)
			pid, err := sched.Register(dsrt.Contract{Class: dsrt.PeriodicVariable, Share: share})
			if err != nil {
				return
			}
			mu.Lock()
			contracts[j.ID] = pid
			mu.Unlock()
			adapter.Attach(id, pid)
		case j.State.Terminal():
			mu.Lock()
			pid, ok := contracts[j.ID]
			delete(contracts, j.ID)
			mu.Unlock()
			if ok {
				_ = sched.Unregister(pid)
				adapter.Detach(id)
			}
		}
	})
}

// RecoverBroker replaces the stack's broker with one rebuilt from WALDir
// against the surviving substrates (pool, GARA, NRM, GRAM, registry,
// clock, metrics registry), exactly as a restarted broker process would
// find them. The dead broker must have been stopped with Crash (or Close)
// first.
func (s *Stack) RecoverBroker() (*core.RecoverStats, error) {
	b, stats, err := core.Recover(s.brokerCfg)
	if err != nil {
		return nil, err
	}
	s.Broker, s.Recovery = b, stats
	if s.Monitor != nil {
		s.Monitor.Stop()
		s.Monitor = core.NewMonitor(b, s.monitorInterval)
		s.Monitor.Start()
	}
	return stats, nil
}

// Mount installs the broker's SOAP endpoints on a fresh mux implementing
// http.Handler (the Fig. 5 deployment), plus the compact JSON API under
// /api/v1/ (package httpapi — the lean transport; with Intake enabled
// its admissions ride the group-commit batch path) and the Prometheus
// metrics exposition on GET /metrics. One listener serves all three.
func (s *Stack) Mount() *soapx.Mux {
	mux := soapx.NewMux()
	mux.Faults = s.Faults
	s.Broker.Mount(mux)
	s.Registry.Mount(mux)
	httpapi.NewServer(s.Broker).Mount(mux)
	mux.HandleHTTP("/metrics", s.Obs.Handler())
	return mux
}

// Close shuts the stack down.
func (s *Stack) Close() {
	if s.Monitor != nil {
		s.Monitor.Stop()
	}
	s.Broker.Close()
	s.GRAM.Close()
}
