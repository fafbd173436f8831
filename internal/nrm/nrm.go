// Package nrm implements the Network Resource Manager of the G-QoSM
// architecture — "conceptually a Bandwidth Broker" (paper §2.1) — managing
// bandwidth reservations within an administrative domain, coordinating
// inter-domain flows with peer NRMs along the path, monitoring network
// state, and notifying subscribers (the broker's SLA-Verif component) of
// QoS degradation.
package nrm

import (
	"errors"
	"fmt"
	"net"
	"sort"
	"strings"
	"sync"
	"time"

	"gqosm/internal/faultx"
	"gqosm/internal/obs"
	"gqosm/internal/resource"
)

// NRM errors.
var (
	// ErrNoRoute is returned when no path exists between two domains.
	ErrNoRoute = errors.New("nrm: no route between domains")
	// ErrUnknownDomain is returned for IPs/names not covered by any
	// registered domain.
	ErrUnknownDomain = errors.New("nrm: unknown domain")
	// ErrUnknownFlow is returned for operations on unknown flow IDs.
	ErrUnknownFlow = errors.New("nrm: unknown flow")
	// ErrInsufficientBandwidth is returned when a link on the path
	// cannot carry the requested reservation.
	ErrInsufficientBandwidth = errors.New("nrm: insufficient bandwidth")
)

// Topology is the multi-domain network map shared by all NRMs: domains
// (identified by name, covering IP prefixes) connected by bidirectional
// links of fixed capacity. Topology is safe for concurrent use.
type Topology struct {
	mu      sync.Mutex
	domains map[string]*domainInfo
	links   map[string]*Link // key: canonical "a|b"
}

type domainInfo struct {
	name     string
	prefixes []*net.IPNet
}

// Link is a bidirectional connection between two domains backed by a
// bandwidth pool.
type Link struct {
	A, B string
	Pool *resource.Pool

	mu sync.Mutex
	// congested carries an artificially injected per-link condition used
	// by experiments: extra delay and packet loss, and a bandwidth
	// derating factor in [0,1] applied to measurements.
	congestion Congestion
}

// Congestion describes an injected network condition on a link.
type Congestion struct {
	// BandwidthFactor derates measured (delivered) bandwidth; 1 = none.
	BandwidthFactor float64
	// ExtraDelayMS adds to the measured one-way delay.
	ExtraDelayMS float64
	// LossPct is the measured packet loss contribution in percent.
	LossPct float64
}

// NewTopology returns an empty topology.
func NewTopology() *Topology {
	return &Topology{
		domains: make(map[string]*domainInfo),
		links:   make(map[string]*Link),
	}
}

// AddDomain registers a domain with the CIDR prefixes it covers ("a domain
// can be defined via an IP mask", §2.1).
func (t *Topology) AddDomain(name string, cidrs ...string) error {
	info := &domainInfo{name: name}
	for _, c := range cidrs {
		_, ipnet, err := net.ParseCIDR(c)
		if err != nil {
			return fmt.Errorf("nrm: domain %s: %w", name, err)
		}
		info.prefixes = append(info.prefixes, ipnet)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.domains[name] = info
	return nil
}

// AddLink connects domains a and b with a link of the given capacity in
// Mbps. Re-adding replaces the link.
func (t *Topology) AddLink(a, b string, capacityMbps float64) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, ok := t.domains[a]; !ok {
		return fmt.Errorf("%w: %s", ErrUnknownDomain, a)
	}
	if _, ok := t.domains[b]; !ok {
		return fmt.Errorf("%w: %s", ErrUnknownDomain, b)
	}
	key := linkKey(a, b)
	t.links[key] = &Link{
		A: a, B: b,
		Pool:       resource.NewPool("link:"+key, resource.Bandwidth(capacityMbps)),
		congestion: Congestion{BandwidthFactor: 1},
	}
	return nil
}

func linkKey(a, b string) string {
	if a > b {
		a, b = b, a
	}
	return a + "|" + b
}

// Link returns the link between a and b, if any.
func (t *Topology) Link(a, b string) (*Link, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	l, ok := t.links[linkKey(a, b)]
	return l, ok
}

// DomainOf resolves an IP address to the domain whose prefix covers it.
func (t *Topology) DomainOf(ip string) (string, error) {
	parsed := net.ParseIP(strings.TrimSpace(ip))
	if parsed == nil {
		return "", fmt.Errorf("nrm: bad IP %q", ip)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, d := range t.domains {
		for _, p := range d.prefixes {
			if p.Contains(parsed) {
				return d.name, nil
			}
		}
	}
	return "", fmt.Errorf("%w: no domain covers %s", ErrUnknownDomain, ip)
}

// Path returns the shortest (fewest hops) domain path from src to dst,
// inclusive of both endpoints. Deterministic: neighbors are explored in
// sorted order.
func (t *Topology) Path(src, dst string) ([]string, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, ok := t.domains[src]; !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownDomain, src)
	}
	if _, ok := t.domains[dst]; !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownDomain, dst)
	}
	if src == dst {
		return []string{src}, nil
	}
	adj := make(map[string][]string)
	for _, l := range t.links {
		adj[l.A] = append(adj[l.A], l.B)
		adj[l.B] = append(adj[l.B], l.A)
	}
	for _, ns := range adj {
		sort.Strings(ns)
	}
	prev := map[string]string{src: src}
	queue := []string{src}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		if cur == dst {
			var path []string
			for n := dst; ; n = prev[n] {
				path = append([]string{n}, path...)
				if n == src {
					return path, nil
				}
			}
		}
		for _, n := range adj[cur] {
			if _, seen := prev[n]; !seen {
				prev[n] = cur
				queue = append(queue, n)
			}
		}
	}
	return nil, fmt.Errorf("%w: %s -> %s", ErrNoRoute, src, dst)
}

// SetCongestion injects a network condition on the link between a and b.
func (t *Topology) SetCongestion(a, b string, c Congestion) error {
	l, ok := t.Link(a, b)
	if !ok {
		return fmt.Errorf("%w: no link %s-%s", ErrNoRoute, a, b)
	}
	if c.BandwidthFactor <= 0 {
		c.BandwidthFactor = 1
	}
	l.mu.Lock()
	l.congestion = c
	l.mu.Unlock()
	return nil
}

func (l *Link) currentCongestion() Congestion {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.congestion
}

// FlowID identifies a bandwidth reservation across a path.
type FlowID string

// Flow is an end-to-end bandwidth reservation.
type Flow struct {
	ID         FlowID
	SourceIP   string
	DestIP     string
	Mbps       float64
	Start, End time.Time
	Tag        string
}

// Measurement is the live network QoS of a flow, feeding the Table-3
// conformance reply.
type Measurement struct {
	BandwidthMbps float64 // delivered bandwidth
	DelayMS       float64 // one-way delay
	LossPct       float64 // packet loss percentage
}

// DegradationFunc is notified when a flow's measured bandwidth falls below
// its reservation ("When the network QoS degrades, the NRM notifies the
// SLA-Verif system of such degradation", §3.2).
type DegradationFunc func(flow Flow, m Measurement)

// Manager is one domain's Network Resource Manager. Reservations for flows
// crossing multiple domains are coordinated across every link of the path
// (all segments reserved or none — the inter-domain SLA coordination of
// §2.1). All methods are safe for concurrent use.
type Manager struct {
	domain string
	topo   *Topology
	// PerHopDelayMS is the base one-way delay contributed by each link.
	PerHopDelayMS float64

	mu     sync.Mutex
	nextID int
	flows  map[FlowID]*flowState
	subs   []DegradationFunc

	// met holds nil-safe flow-check counters; zero until Instrument is
	// called.
	met nrmMetrics

	// faults injects failures into link operations; nil injects nothing.
	// Set at assembly time, before the manager serves requests.
	faults *faultx.Injector
}

// InjectFaults installs a fault injector on the manager's link
// operations (sites "nrm.reserve", "nrm.release", "nrm.measure"). Call
// at assembly time.
func (m *Manager) InjectFaults(inj *faultx.Injector) { m.faults = inj }

type nrmMetrics struct {
	checks        *obs.Counter
	flowsChecked  *obs.Counter
	degradations  *obs.Counter
	reservations  *obs.Counter
	reserveErrors *obs.Counter
	releases      *obs.Counter
}

// Instrument registers flow metrics on reg. Call once at assembly time,
// before the manager serves requests.
func (m *Manager) Instrument(reg *obs.Registry) {
	m.mu.Lock()
	m.met = nrmMetrics{
		checks: reg.Counter("gqosm_nrm_checks_total",
			"CheckAll sweeps over active flows"),
		flowsChecked: reg.Counter("gqosm_nrm_flows_checked_total",
			"Individual flow measurements taken by CheckAll"),
		degradations: reg.Counter("gqosm_nrm_degradations_total",
			"Flows found delivering below reserved bandwidth"),
		reservations: reg.Counter("gqosm_nrm_reservations_total",
			"End-to-end bandwidth reservations established"),
		reserveErrors: reg.Counter("gqosm_nrm_reserve_errors_total",
			"Failed bandwidth reservation attempts"),
		releases: reg.Counter("gqosm_nrm_releases_total",
			"Bandwidth reservations released"),
	}
	m.mu.Unlock()
	reg.GaugeFunc("gqosm_nrm_flows_active",
		"Flows currently held", func() float64 {
			m.mu.Lock()
			defer m.mu.Unlock()
			return float64(len(m.flows))
		})
}

type flowState struct {
	flow Flow
	// reservations holds the per-link reservation IDs, parallel to the
	// path's links.
	reservations []resource.ReservationID
	links        []*Link
}

// NewManager returns the NRM for the given domain over the shared
// topology.
func NewManager(domain string, topo *Topology) *Manager {
	return &Manager{
		domain:        domain,
		topo:          topo,
		PerHopDelayMS: 5,
		flows:         make(map[FlowID]*flowState),
	}
}

// Subscribe registers a degradation callback.
func (m *Manager) Subscribe(f DegradationFunc) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.subs = append(m.subs, f)
}

// Reserve establishes an end-to-end bandwidth reservation between two IP
// endpoints over [start, end). Every link along the shortest domain path
// must admit the reservation; on any failure all segments are rolled back.
func (m *Manager) Reserve(srcIP, dstIP string, mbps float64, start, end time.Time, tag string) (*Flow, error) {
	var f *Flow
	err := m.faults.Do("nrm.reserve", func() error {
		flow, err := m.reserve(srcIP, dstIP, mbps, start, end, tag)
		if err == nil {
			f = flow
		}
		return err
	})
	if err != nil {
		f = nil
	}
	if err != nil {
		m.met.reserveErrors.Inc()
	} else {
		m.met.reservations.Inc()
	}
	return f, err
}

func (m *Manager) reserve(srcIP, dstIP string, mbps float64, start, end time.Time, tag string) (*Flow, error) {
	if mbps <= 0 {
		return nil, fmt.Errorf("nrm: non-positive bandwidth %g", mbps)
	}
	srcDom, err := m.topo.DomainOf(srcIP)
	if err != nil {
		return nil, err
	}
	dstDom, err := m.topo.DomainOf(dstIP)
	if err != nil {
		return nil, err
	}
	path, err := m.topo.Path(srcDom, dstDom)
	if err != nil {
		return nil, err
	}

	var (
		links []*Link
		ids   []resource.ReservationID
	)
	rollback := func() {
		for i, id := range ids {
			// Ignore errors: rollback of a reservation we just made.
			_ = links[i].Pool.Release(id)
		}
	}
	for i := 0; i+1 < len(path); i++ {
		l, ok := m.topo.Link(path[i], path[i+1])
		if !ok {
			rollback()
			return nil, fmt.Errorf("%w: missing link %s-%s", ErrNoRoute, path[i], path[i+1])
		}
		r, err := l.Pool.Reserve(resource.Bandwidth(mbps), start, end, tag)
		if err != nil {
			rollback()
			return nil, fmt.Errorf("%w: link %s-%s: %v", ErrInsufficientBandwidth, path[i], path[i+1], err)
		}
		links = append(links, l)
		ids = append(ids, r.ID)
	}

	m.mu.Lock()
	defer m.mu.Unlock()
	m.nextID++
	flow := Flow{
		ID:       FlowID(fmt.Sprintf("%s-flow-%d", m.domain, m.nextID)),
		SourceIP: strings.TrimSpace(srcIP),
		DestIP:   strings.TrimSpace(dstIP),
		Mbps:     mbps,
		Start:    start,
		End:      end,
		Tag:      tag,
	}
	m.flows[flow.ID] = &flowState{flow: flow, reservations: ids, links: links}
	return &flow, nil
}

// Release tears down a flow's reservations on every link.
func (m *Manager) Release(id FlowID) error {
	// The fault check runs before any teardown so an injected error
	// leaves the flow intact for a retry.
	if err := m.faults.Do("nrm.release", func() error { return nil }); err != nil {
		return err
	}
	m.mu.Lock()
	st, ok := m.flows[id]
	if ok {
		delete(m.flows, id)
	}
	m.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownFlow, id)
	}
	m.met.releases.Inc()
	var firstErr error
	for i, rid := range st.reservations {
		if err := st.links[i].Pool.Release(rid); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// Flow returns a copy of the flow record.
func (m *Manager) Flow(id FlowID) (Flow, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	st, ok := m.flows[id]
	if !ok {
		return Flow{}, fmt.Errorf("%w: %s", ErrUnknownFlow, id)
	}
	return st.flow, nil
}

// Flows returns copies of all flows ordered by ID.
func (m *Manager) Flows() []Flow {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]Flow, 0, len(m.flows))
	for _, st := range m.flows {
		out = append(out, st.flow)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Measure reports the flow's delivered QoS now: the reserved bandwidth
// derated by the worst congestion factor along the path, delay as per-hop
// base plus injected extras, and loss as the sum of injected losses.
func (m *Manager) Measure(id FlowID) (Measurement, error) {
	if err := m.faults.Do("nrm.measure", func() error { return nil }); err != nil {
		return Measurement{}, err
	}
	m.mu.Lock()
	st, ok := m.flows[id]
	m.mu.Unlock()
	if !ok {
		return Measurement{}, fmt.Errorf("%w: %s", ErrUnknownFlow, id)
	}
	meas := Measurement{BandwidthMbps: st.flow.Mbps}
	worstFactor := 1.0
	for _, l := range st.links {
		c := l.currentCongestion()
		if c.BandwidthFactor < worstFactor {
			worstFactor = c.BandwidthFactor
		}
		meas.DelayMS += m.PerHopDelayMS + c.ExtraDelayMS
		meas.LossPct += c.LossPct
	}
	meas.BandwidthMbps *= worstFactor
	if meas.LossPct > 100 {
		meas.LossPct = 100
	}
	return meas, nil
}

// CheckAll measures every active flow and fires degradation notifications
// for flows delivering less than their reserved bandwidth (beyond a 1%
// tolerance). It returns the degraded flows' measurements. This is the
// polling hook the broker's monitor drives; injected congestion becomes a
// notification on the next check.
func (m *Manager) CheckAll(now time.Time) []Measurement {
	m.mu.Lock()
	ids := make([]FlowID, 0, len(m.flows))
	for id, st := range m.flows {
		if !st.flow.Start.After(now) && st.flow.End.After(now) {
			ids = append(ids, id)
		}
	}
	subs := append([]DegradationFunc(nil), m.subs...)
	m.mu.Unlock()
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	m.met.checks.Inc()
	m.met.flowsChecked.Add(int64(len(ids)))

	var degraded []Measurement
	for _, id := range ids {
		meas, err := m.Measure(id)
		if err != nil {
			continue // flow released concurrently
		}
		flow, err := m.Flow(id)
		if err != nil {
			continue
		}
		if meas.BandwidthMbps < flow.Mbps*0.99 {
			m.met.degradations.Inc()
			degraded = append(degraded, meas)
			for _, s := range subs {
				s(flow, meas)
			}
		}
	}
	return degraded
}
