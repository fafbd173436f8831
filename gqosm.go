// Package gqosm is a Go implementation of the G-QoSM Grid QoS management
// framework and its QoS adaptation scheme, reproducing "QoS Adaptation in
// Service-Oriented Grids" (Al-Ali, Hafid, Rana, Walker — Middleware 2003).
//
// The package is a thin facade over the implementation packages: it
// re-exports the types a downstream user needs to stand up an AQoS broker
// with its substrates (GARA-style reservations, a DSRT-style CPU
// scheduler, a bandwidth-broker NRM, a UDDIe-style registry, an MDS-style
// information service and a GRAM-style job manager), negotiate SLAs, and
// drive the adaptation scheme.
//
// Quickstart:
//
//	stack, err := gqosm.NewStack(gqosm.StackConfig{
//		Domain: "site-a",
//		Plan: gqosm.CapacityPlan{
//			Guaranteed: gqosm.Capacity{CPU: 15},
//			Adaptive:   gqosm.Capacity{CPU: 6},
//			BestEffort: gqosm.Capacity{CPU: 5},
//		},
//	})
//	offer, err := stack.Broker.RequestService(gqosm.Request{ ... })
//	err = stack.Broker.Accept(offer.SLA.ID)
//
// See the examples directory for complete programs and DESIGN.md for the
// paper-to-module map.
package gqosm

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
	"gqosm/internal/pricing"
	"gqosm/internal/registry"
	"gqosm/internal/resource"
	"gqosm/internal/rsl"
	"gqosm/internal/sla"
	"gqosm/internal/soapx"
)

// Re-exported core types. The aliases keep one import path for users while
// the implementation stays in focused internal packages.
type (
	// Capacity is a multi-dimensional resource quantity.
	Capacity = resource.Capacity
	// CapacityPlan is the Algorithm-1 partition R = C_G + C_A + C_B.
	CapacityPlan = core.CapacityPlan
	// Broker is the AQoS broker.
	Broker = core.Broker
	// Request is a client service request with QoS requirements.
	Request = core.Request
	// Offer is a proposed SLA with temporarily reserved resources.
	Offer = core.Offer
	// SLA is a Service Level Agreement document.
	SLA = sla.Document
	// SLAID identifies an SLA.
	SLAID = sla.ID
	// Spec is a QoS parameter set.
	Spec = sla.Spec
	// Param is one QoS parameter (exact / range / list).
	Param = sla.Param
	// Class is the service class (guaranteed / controlled-load / best
	// effort).
	Class = sla.Class
	// Clock abstracts time for deterministic runs.
	Clock = clockx.Clock
	// ManualClock is the deterministic clock used by tests and the
	// simulator.
	ManualClock = clockx.Manual
	// PromotionOffer is a scenario-2(c) discounted upgrade offer.
	PromotionOffer = pricing.PromotionOffer
	// ConformanceReport is an SLA-Verif result (Table 3).
	ConformanceReport = core.ConformanceReport
	// RetryPolicy bounds the broker's RM-facing calls (per-attempt
	// timeout, bounded retries, jittered exponential backoff). The zero
	// value is a single direct attempt.
	RetryPolicy = core.RetryPolicy
	// FaultInjector is the deterministic fault-injection layer; install
	// one via StackConfig.Faults to chaos-test a deployment.
	FaultInjector = faultx.Injector
	// FaultPlan configures injection at one site or as the default.
	FaultPlan = faultx.Plan
	// IntakeConfig enables and sizes the broker's group-commit admission
	// intake (StackConfig.Intake): queued admissions are committed in one
	// allocator pass and one WAL fsync per batch.
	IntakeConfig = core.IntakeConfig
	// IntakeTicket is a queued admission's future (Broker.Submit);
	// Wait blocks until the batch it joined is flushed.
	IntakeTicket = core.IntakeTicket
)

// Fault kinds for FaultPlan.Kinds.
const (
	FaultError   = faultx.KindError
	FaultLatency = faultx.KindLatency
	FaultHang    = faultx.KindHang
	FaultPartial = faultx.KindPartial
	FaultCrash   = faultx.KindCrash
)

// Re-exported constants.
const (
	ClassGuaranteed     = sla.ClassGuaranteed
	ClassControlledLoad = sla.ClassControlledLoad
	ClassBestEffort     = sla.ClassBestEffort

	CPU           = resource.CPU
	MemoryMB      = resource.MemoryMB
	DiskGB        = resource.DiskGB
	BandwidthMbps = resource.BandwidthMbps
)

// Re-exported constructors for QoS parameters.
var (
	// Exact builds an exact-value parameter (guaranteed class).
	Exact = sla.Exact
	// Range builds a [min, max] parameter (controlled-load class).
	Range = sla.Range
	// List builds an explicit-values parameter.
	List = sla.List
	// NewSpec assembles a Spec from parameters.
	NewSpec = sla.NewSpec
	// Nodes is shorthand for a CPU-only capacity.
	Nodes = resource.Nodes
	// PlanForFailureRate sizes the adaptive reserve from the expected
	// failure rate.
	PlanForFailureRate = core.PlanForFailureRate
	// NewFaultInjector returns a seeded fault injector; nil clock means
	// the wall clock.
	NewFaultInjector = faultx.New
)

// StackConfig sizes a complete single-domain G-QoSM deployment.
type StackConfig struct {
	// Domain names the administrative domain (default "site-a").
	Domain string
	// Plan is the capacity partition (required).
	Plan CapacityPlan
	// Clock defaults to the wall clock; inject a ManualClock for
	// deterministic runs.
	Clock Clock
	// Services to pre-register for discovery; when empty a catch-all
	// service named "simulation" advertising the full capacity is
	// registered.
	Services []registry.Service
	// Topology optionally provides a multi-domain network; when set,
	// NetworkDomain selects the domain this stack's NRM administers.
	Topology      *nrm.Topology
	NetworkDomain string
	// ConfirmWindow bounds how long offers hold temporary reservations.
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
	// RepoDir, when set, persists established SLAs as Table-4 XML files
	// in that directory (the paper's SLA repository); otherwise SLAs are
	// kept in memory.
	RepoDir string
	// MonitorInterval, when positive, starts a periodic QoS-management
	// monitor (NRM checks, session expiry, optimizer passes) at that
	// interval; Close stops it.
	MonitorInterval time.Duration
	// Shards splits the broker's capacity plan across that many
	// independently locked allocators behind a least-loaded placement
	// layer (default 1, the classic monolithic domain).
	Shards int
	// EventLogCap bounds the broker's in-memory activity log (default
	// 8192 events; oldest evicted first).
	EventLogCap int
	// Obs receives metrics and lifecycle traces from every component;
	// nil creates a private registry, reachable via Stack.Obs. Mount
	// serves it on /metrics.
	Obs *obs.Registry
	// Faults, when non-nil, is installed on every substrate (GARA
	// managers, GRAM, the NRM, the SOAP server mux) and on the broker's
	// RM-facing call sites — the chaos-testing hook. Nil (the default)
	// injects nothing.
	Faults *FaultInjector
	// RMPolicy bounds the broker's RM-facing calls; the zero value is
	// the historical single direct attempt with no timeout.
	RMPolicy RetryPolicy
	// WALDir, when set, makes the broker durable: lifecycle records
	// journal to a write-ahead log in that directory with periodic
	// snapshots, and a restart with the same WALDir recovers the dead
	// broker's sessions, allocator book and ledger, then reconciles
	// reservations against the RMs. Empty keeps the historical
	// in-memory broker.
	WALDir string
	// WALSnapshotEvery is the snapshot cadence in WAL records (0 = the
	// package default, 256). Only meaningful with WALDir.
	WALSnapshotEvery int
	// Intake enables the group-commit admission intake: concurrent
	// RequestService calls (in-process, SOAP or JSON) queued behind the
	// same flush leader share one allocator pass and one WAL fsync. The
	// zero value admits each request inline on its caller's goroutine.
	Intake IntakeConfig
	// Policy names the broker's adaptation policy ("" = "paper", the
	// historical heuristics). See core.PolicyNames for the registry.
	Policy string
	// ShadowPolicy, when set, consults the named candidate policy in
	// shadow at every broker decision point, counting divergence without
	// affecting live decisions (qosctl policies shows both).
	ShadowPolicy string
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
	Clock    Clock
	// DSRT is the soft-real-time CPU scheduler when DSRTProcessors > 0.
	DSRT *dsrt.Scheduler
	// RM is the DSRT-backed RM-level adaptation hook, when enabled.
	RM *core.DSRTAdapter
	// Monitor is the periodic QoS-management driver, when enabled.
	Monitor *core.Monitor
	// Obs is the metrics registry shared by all components; Mount
	// serves it on /metrics.
	Obs *obs.Registry
	// Faults is the injector from StackConfig, when one was installed;
	// Mount also arms it on the SOAP server mux.
	Faults *FaultInjector
	// Recovery reports what crash recovery rebuilt and reconciled, when
	// WALDir held state from a previous run; nil on a fresh start.
	Recovery *core.RecoverStats
}

// NewStack assembles a deployment.
func NewStack(cfg StackConfig) (*Stack, error) {
	if cfg.Domain == "" {
		cfg.Domain = "site-a"
	}
	clock := cfg.Clock
	if clock == nil {
		clock = clockx.Real()
	}
	total := cfg.Plan.Total()
	pool := resource.NewPool(cfg.Domain, total)

	g := gara.NewSystem()
	g.RegisterManager(gara.WrapManager(gara.NewComputeManager(pool), cfg.Faults))

	var netMgr *nrm.Manager
	if cfg.Topology != nil {
		domain := cfg.NetworkDomain
		if domain == "" {
			domain = cfg.Domain
		}
		netMgr = nrm.NewManager(domain, cfg.Topology)
		netMgr.InjectFaults(cfg.Faults)
		g.RegisterManager(gara.WrapManager(gara.NewNetworkManager(netMgr), cfg.Faults))
	}

	reg := registry.New(clock)
	services := cfg.Services
	if len(services) == 0 {
		services = []registry.Service{{
			Name:     "simulation",
			Provider: cfg.Domain,
			Properties: []registry.Property{
				registry.NumProp("cpu-nodes", total.CPU),
				registry.NumProp("memory-mb", total.MemoryMB),
				registry.NumProp("disk-gb", total.DiskGB),
				registry.NumProp("bandwidth-mbps", total.BandwidthMbps),
			},
		}}
	}
	for _, s := range services {
		if _, err := reg.Register(s); err != nil {
			return nil, fmt.Errorf("gqosm: register service: %w", err)
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

	var (
		sched   *dsrt.Scheduler
		adapter *core.DSRTAdapter
	)
	if cfg.DSRTProcessors > 0 {
		sched = dsrt.New(dsrt.Config{Processors: cfg.DSRTProcessors}, nil)
		g.RegisterManager(gara.WrapManager(gara.NewDSRTManager(sched), cfg.Faults))
		adapter = core.NewDSRTAdapter(sched)
		// Run every launched service process under a DSRT contract: the
		// job's label carries the SLA ID, so degradations can be
		// rectified at the scheduler (RM) level first.
		attachJobs(gramM, sched, adapter, cfg.DSRTProcessors)
	}

	var repo sla.Repository
	if cfg.RepoDir != "" {
		fileRepo, err := sla.NewFileRepository(cfg.RepoDir)
		if err != nil {
			gramM.Close()
			return nil, err
		}
		repo = fileRepo
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
		RM:               rmOrNil(adapter),
		Repo:             repo,
		ConfirmWindow:    cfg.ConfirmWindow,
		MinOptimizerGain: cfg.MinOptimizerGain,
		Shards:           cfg.Shards,
		EventLogCap:      cfg.EventLogCap,
		Obs:              cfg.Obs,
		Faults:           cfg.Faults,
		RMPolicy:         cfg.RMPolicy,
		Durability:       core.DurabilityConfig{Dir: cfg.WALDir, SnapshotEvery: cfg.WALSnapshotEvery},
		Intake:           cfg.Intake,
		Policy:           cfg.Policy,
		ShadowPolicy:     cfg.ShadowPolicy,
	}
	// A WAL directory that already holds state means this start is a
	// RESTART: recover the previous broker's sessions and reconcile
	// against the RMs instead of journaling over its log.
	var (
		broker   *core.Broker
		recovery *core.RecoverStats
		err      error
	)
	if cfg.WALDir != "" && core.HasWALState(cfg.WALDir) {
		broker, recovery, err = core.Recover(brokerCfg)
	} else {
		broker, err = core.NewBroker(brokerCfg)
	}
	if err != nil {
		gramM.Close()
		return nil, err
	}
	metrics := broker.Obs()
	g.Instrument(metrics)
	gramM.Instrument(metrics)
	if netMgr != nil {
		netMgr.Instrument(metrics)
	}
	if sched != nil {
		sched.Instrument(metrics)
	}
	stack := &Stack{
		Broker:   broker,
		Pool:     pool,
		Registry: reg,
		MDS:      dir,
		GRAM:     gramM,
		GARA:     g,
		NRM:      netMgr,
		Clock:    clock,
		DSRT:     sched,
		RM:       adapter,
		Obs:      metrics,
		Faults:   cfg.Faults,
		Recovery: recovery,
	}
	if cfg.MonitorInterval > 0 {
		stack.Monitor = core.NewMonitor(broker, cfg.MonitorInterval)
		stack.Monitor.Start()
	}
	return stack, nil
}

// rmOrNil avoids storing a typed-nil adapter in the interface-valued
// config field.
func rmOrNil(a *core.DSRTAdapter) core.RMAdapter {
	if a == nil {
		return nil
	}
	return a
}

// attachJobs subscribes to GRAM job transitions, giving every launched
// service process a DSRT contract and linking it to its session for
// RM-level adaptation; terminal jobs release their contracts.
func attachJobs(gramM *gram.Manager, sched *dsrt.Scheduler, adapter *core.DSRTAdapter, processors int) {
	var mu sync.Mutex
	contracts := make(map[gram.JobID]dsrt.PID)
	gramM.Subscribe(func(j gram.Job) {
		node, err := rsl.ParseCached(j.Spec)
		if err != nil {
			return
		}
		id := sla.ID(node.Str("label", ""))
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

// NewManualClock returns a deterministic clock starting at start.
func NewManualClock(start time.Time) *ManualClock { return clockx.NewManual(start) }

// NewTopology returns an empty multi-domain network topology.
func NewTopology() *nrm.Topology { return nrm.NewTopology() }

// NewBrokerClient returns a typed SOAP client for a remote AQoS broker.
func NewBrokerClient(endpoint string) *core.Client { return core.NewClient(endpoint) }

// NewJSONBrokerClient returns a typed client for a remote AQoS broker's
// compact JSON API (the lean transport mounted under /api/v1/). Typed
// broker errors round-trip: errors.Is against core.ErrOverBudget &c.
// works through the wire.
func NewJSONBrokerClient(endpoint string) *httpapi.Client { return httpapi.NewClient(endpoint) }
