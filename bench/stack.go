package main

import (
	"fmt"
	"time"

	"gqosm/internal/clockx"
	"gqosm/internal/core"
	"gqosm/internal/gara"
	"gqosm/internal/gram"
	"gqosm/internal/httpapi"
	"gqosm/internal/mds"
	"gqosm/internal/obs"
	"gqosm/internal/registry"
	"gqosm/internal/resource"
	"gqosm/internal/rsl"
	"gqosm/internal/soapx"
)

// epoch is the virtual start of every run (the sim package's Epoch).
var epoch = time.Date(2003, 6, 16, 9, 0, 0, 0, time.UTC)

// planOf builds a plan with the cluster sim's memory and disk per CPU, so
// CPU is the dimension that fills first.
func planOf(g, a, b float64) core.CapacityPlan {
	part := func(cpu float64) resource.Capacity {
		return resource.Capacity{CPU: cpu, MemoryMB: cpu * 512, DiskGB: cpu * 10}
	}
	return core.CapacityPlan{Guaranteed: part(g), Adaptive: part(a), BestEffort: part(b)}
}

// lifecyclePlan is the plan of every workload but overload_adapt.
var lifecyclePlan = planOf(192, 48, 24)

// stackConfig is what differs between the workloads' brokers.
type stackConfig struct {
	domain string
	plan   core.CapacityPlan
	// advertise overrides the capacity the catch-all service advertises;
	// cluster members advertise the cluster total so discovery admits and
	// the allocator decides.
	advertise resource.Capacity
	walDir    string
	intake    bool
	// tr, when set, installs the timing seams round the registry and the
	// compute resource manager.
	tr *tracer
}

// stack is one broker with its substrates, assembled as gqosm.NewStack
// assembles it but with core.NewBroker called here, so the Finder and
// ResourceManager seams can carry timing wrappers and so a recovering
// broker can be rebuilt against the surviving substrates.
type stack struct {
	broker *core.Broker
	pool   *resource.Pool
	reg    *registry.Registry
	gara   *gara.System
	gram   *gram.Manager
	obs    *obs.Registry
	seam   *seamCapture
	cfg    core.Config
}

func newStack(clock *clockx.Manual, sc stackConfig) (*stack, error) {
	total := sc.plan.Total()
	pool := resource.NewPool(sc.domain, total)
	g := gara.NewSystem()
	var seam *seamCapture
	var rm gara.ResourceManager = gara.NewComputeManager(pool)
	if sc.tr != nil {
		seam = &seamCapture{}
		rm = &timedRM{ResourceManager: rm, tr: sc.tr, seam: seam}
	}
	g.RegisterManager(rm)

	reg := registry.New(clock)
	adv := total
	if !sc.advertise.IsZero() {
		adv = sc.advertise
	}
	if _, err := reg.Register(registry.Service{
		Name:     "simulation",
		Provider: sc.domain,
		Properties: []registry.Property{
			registry.NumProp("cpu-nodes", adv.CPU),
			registry.NumProp("memory-mb", adv.MemoryMB),
			registry.NumProp("disk-gb", adv.DiskGB),
			registry.NumProp("bandwidth-mbps", 1000),
		},
	}); err != nil {
		return nil, fmt.Errorf("register service: %w", err)
	}
	var finder core.Finder = reg
	if sc.tr != nil {
		finder = &timedFinder{Registry: reg, tr: sc.tr, seam: seam}
	}

	dir := mds.NewDirectory()
	if err := dir.Register(sc.domain, func() mds.Attributes {
		now := clock.Now()
		return mds.Attributes{
			"cpu-total": fmt.Sprintf("%g", pool.Total().CPU),
			"cpu-free":  fmt.Sprintf("%g", pool.Available(now).CPU),
		}
	}); err != nil {
		return nil, err
	}
	gramM := gram.NewManager(clock)

	cfg := core.Config{
		Domain:     sc.domain,
		Clock:      clock,
		Plan:       sc.plan,
		Registry:   finder,
		GARA:       g,
		GRAM:       gramM,
		MDS:        dir,
		Durability: core.DurabilityConfig{Dir: sc.walDir},
		Intake:     core.IntakeConfig{Enabled: sc.intake, MaxBatch: 64},
	}
	broker, err := core.NewBroker(cfg)
	if err != nil {
		gramM.Close()
		return nil, err
	}
	// A recovered broker reports into the same registry, so counters
	// accumulate across the crash.
	cfg.Obs = broker.Obs()
	g.Instrument(cfg.Obs)
	gramM.Instrument(cfg.Obs)
	return &stack{broker: broker, pool: pool, reg: reg, gara: g, gram: gramM, obs: cfg.Obs, seam: seam, cfg: cfg}, nil
}

// recoverBroker replaces a crashed broker with one recovered from its WAL
// directory against the surviving substrates, as a restarted broker
// process finds them.
func (s *stack) recoverBroker() (*core.RecoverStats, error) {
	b, stats, err := core.Recover(s.cfg)
	if err != nil {
		return nil, err
	}
	s.broker = b
	return stats, nil
}

// prune drops terminal sessions, canceled reservations and finished jobs,
// as a long-lived deployment does at its quiesce points.
func (s *stack) prune() {
	s.broker.PruneTerminal()
	s.gara.PruneCanceled()
	s.gram.PruneTerminal()
}

// mount serves the broker as gqosm.Stack.Mount does: SOAP endpoints, the
// JSON API under /api/v1/ and /metrics on one handler.
func (s *stack) mount() *soapx.Mux {
	mux := soapx.NewMux()
	s.broker.Mount(mux)
	s.reg.Mount(mux)
	httpapi.NewServer(s.broker).Mount(mux)
	mux.HandleHTTP("/metrics", s.obs.Handler())
	return mux
}

func (s *stack) close() {
	s.broker.Close()
	s.gram.Close()
}

// counter reads one of the stack's obs counters by name and labels.
func (s *stack) counter(name string, labels ...string) float64 {
	return float64(s.obs.Counter(name, "", labels...).Value())
}

// lifecycle reads one gqosm_broker_lifecycle_total event counter.
func (s *stack) lifecycle(event string) float64 {
	return s.counter("gqosm_broker_lifecycle_total", "event", event)
}

// timedFinder is the registry seam: a span round every Find. Embedding
// keeps Generation and Epoch, so the broker's discovery cache still
// engages.
type timedFinder struct {
	*registry.Registry
	tr   *tracer
	seam *seamCapture
}

func (f *timedFinder) Find(q registry.Query) ([]*registry.Service, error) {
	f.seam.query = &q
	id := f.tr.begin("registry.find", 0)
	out, err := f.Registry.Find(q)
	f.tr.end(id)
	return out, err
}

// seamCapture keeps what the layer probes replay: the first RSL strings
// and the last discovery query seen at the seams, and the RM's failures.
type seamCapture struct {
	rsl      []string
	query    *registry.Query
	rmCalls  int
	rmFailed int
}

// timedRM is the resource-manager seam: a span round every call GARA
// makes into the compute manager.
type timedRM struct {
	gara.ResourceManager
	tr   *tracer
	seam *seamCapture
}

func (m *timedRM) note(err error) {
	m.seam.rmCalls++
	if err != nil {
		m.seam.rmFailed++
	}
}

func (m *timedRM) Reserve(spec *rsl.Node, start, end time.Time, tag string) (string, error) {
	if len(m.seam.rsl) < 64 {
		m.seam.rsl = append(m.seam.rsl, spec.String())
	}
	id := m.tr.begin("gara.rm_reserve", 0)
	tok, err := m.ResourceManager.Reserve(spec, start, end, tag)
	m.tr.end(id)
	m.note(err)
	return tok, err
}

func (m *timedRM) Modify(token string, spec *rsl.Node) error {
	id := m.tr.begin("gara.rm_modify", 0)
	err := m.ResourceManager.Modify(token, spec)
	m.tr.end(id)
	m.note(err)
	return err
}

func (m *timedRM) Cancel(token string) error {
	id := m.tr.begin("gara.rm_cancel", 0)
	err := m.ResourceManager.Cancel(token)
	m.tr.end(id)
	m.note(err)
	return err
}
