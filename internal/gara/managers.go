package gara

import (
	"errors"
	"fmt"
	"strconv"
	"sync"
	"time"

	"gqosm/internal/dsrt"
	"gqosm/internal/nrm"
	"gqosm/internal/resource"
	"gqosm/internal/rsl"
)

// This file provides the concrete resource managers GARA routes to —
// "processors, networks and storage devices" (§1) — backing reservations
// with the resource pools, the NRM bandwidth broker, and the DSRT
// scheduler.

// Reservation-type names used in RSL requests.
const (
	TypeCompute  = "compute"
	TypeNetwork  = "network"
	TypeStorage  = "storage"
	TypeCPUShare = "cpu-share"
)

// ComputeManager reserves whole processor nodes (plus memory and disk)
// from a resource pool — the SGI-machine style allocation of §5.6. RSL
// attributes: count (nodes), memory (MB), disk (GB).
type ComputeManager struct {
	pool *resource.Pool
}

// NewComputeManager returns a manager backed by pool.
func NewComputeManager(pool *resource.Pool) *ComputeManager {
	return &ComputeManager{pool: pool}
}

// Type implements ResourceManager.
func (m *ComputeManager) Type() string { return TypeCompute }

func computeCapacity(spec *rsl.Node) resource.Capacity {
	return resource.Capacity{
		CPU:      spec.Num("count", 0),
		MemoryMB: spec.Num("memory", 0),
		DiskGB:   spec.Num("disk", 0),
	}
}

// Reserve implements ResourceManager.
func (m *ComputeManager) Reserve(spec *rsl.Node, start, end time.Time, tag string) (string, error) {
	amount := computeCapacity(spec)
	if amount.IsZero() {
		return "", errors.New("gara: compute request reserves nothing (need count/memory/disk)")
	}
	r, err := m.pool.Reserve(amount, start, end, tag)
	if err != nil {
		return "", err
	}
	return string(r.ID), nil
}

// Modify implements ResourceManager.
func (m *ComputeManager) Modify(token string, spec *rsl.Node) error {
	return m.pool.Resize(resource.ReservationID(token), computeCapacity(spec))
}

// Cancel implements ResourceManager.
func (m *ComputeManager) Cancel(token string) error {
	return m.pool.Release(resource.ReservationID(token))
}

var _ ResourceManager = (*ComputeManager)(nil)

// StorageManager reserves disk space from a pool. RSL attribute: disk
// (GB).
type StorageManager struct {
	pool *resource.Pool
}

// NewStorageManager returns a manager backed by pool.
func NewStorageManager(pool *resource.Pool) *StorageManager {
	return &StorageManager{pool: pool}
}

// Type implements ResourceManager.
func (m *StorageManager) Type() string { return TypeStorage }

// Reserve implements ResourceManager.
func (m *StorageManager) Reserve(spec *rsl.Node, start, end time.Time, tag string) (string, error) {
	gb := spec.Num("disk", 0)
	if gb <= 0 {
		return "", errors.New("gara: storage request needs disk>0")
	}
	r, err := m.pool.Reserve(resource.Capacity{DiskGB: gb}, start, end, tag)
	if err != nil {
		return "", err
	}
	return string(r.ID), nil
}

// Modify implements ResourceManager.
func (m *StorageManager) Modify(token string, spec *rsl.Node) error {
	return m.pool.Resize(resource.ReservationID(token), resource.Capacity{DiskGB: spec.Num("disk", 0)})
}

// Cancel implements ResourceManager.
func (m *StorageManager) Cancel(token string) error {
	return m.pool.Release(resource.ReservationID(token))
}

var _ ResourceManager = (*StorageManager)(nil)

// NetworkManager reserves end-to-end bandwidth through the domain's NRM.
// RSL attributes: source-ip, dest-ip, bandwidth (Mbps).
type NetworkManager struct {
	nrm *nrm.Manager

	// aliases maps a token to its replacement flow ID after Modify
	// (the NRM issues a fresh flow per reservation).
	aliasMu sync.Mutex
	aliases map[string]string
}

// NewNetworkManager returns a manager delegating to the given NRM.
func NewNetworkManager(manager *nrm.Manager) *NetworkManager {
	return &NetworkManager{nrm: manager}
}

// Type implements ResourceManager.
func (m *NetworkManager) Type() string { return TypeNetwork }

// Reserve implements ResourceManager.
func (m *NetworkManager) Reserve(spec *rsl.Node, start, end time.Time, tag string) (string, error) {
	src := spec.Str("source-ip", "")
	dst := spec.Str("dest-ip", "")
	bw := spec.Num("bandwidth", 0)
	if src == "" || dst == "" {
		return "", errors.New(`gara: network request needs source-ip and dest-ip`)
	}
	flow, err := m.nrm.Reserve(src, dst, bw, start, end, tag)
	if err != nil {
		return "", err
	}
	return string(flow.ID), nil
}

// Modify implements ResourceManager: the flow is re-reserved at the new
// bandwidth (release + reserve, keeping endpoints and interval).
func (m *NetworkManager) Modify(token string, spec *rsl.Node) error {
	old, err := m.nrm.Flow(nrm.FlowID(m.resolve(token)))
	if err != nil {
		return err
	}
	bw := spec.Num("bandwidth", old.Mbps)
	if err := m.nrm.Release(old.ID); err != nil {
		return err
	}
	flow, err := m.nrm.Reserve(old.SourceIP, old.DestIP, bw, old.Start, old.End, old.Tag)
	if err != nil {
		// Best effort: restore the old reservation. The restored flow
		// carries a fresh ID, so the token must be re-aliased to it or
		// later Cancel/Flow calls on the token would dangle.
		restored, restoreErr := m.nrm.Reserve(old.SourceIP, old.DestIP, old.Mbps, old.Start, old.End, old.Tag)
		if restoreErr != nil {
			return fmt.Errorf("gara: modify failed (%v) and restore failed: %w", err, restoreErr)
		}
		m.alias(token, string(restored.ID))
		return err
	}
	// The flow ID changed; record the alias so future operations on the
	// original token resolve.
	m.alias(token, string(flow.ID))
	return nil
}

func (m *NetworkManager) alias(token, flowID string) {
	m.aliasMu.Lock()
	if m.aliases == nil {
		m.aliases = make(map[string]string)
	}
	m.aliases[token] = flowID
	m.aliasMu.Unlock()
}

// Cancel implements ResourceManager.
func (m *NetworkManager) Cancel(token string) error {
	return m.nrm.Release(nrm.FlowID(m.resolve(token)))
}

func (m *NetworkManager) resolve(token string) string {
	m.aliasMu.Lock()
	defer m.aliasMu.Unlock()
	seen := 0
	for {
		next, ok := m.aliases[token]
		if !ok || seen > len(m.aliases) {
			return token
		}
		token = next
		seen++
	}
}

var _ ResourceManager = (*NetworkManager)(nil)

// DSRTManager reserves fractional CPU shares through the DSRT scheduler —
// "GARA's DSRT resource manager API is used to facilitate the interaction
// between the QoS broker and the DSRT scheduler" (§6). RSL attributes:
// share (fraction of one CPU), period (ms), class ("PCPT"/"PVPT"/
// "APERIODIC"). Binding attaches the launched PID; the DSRT registration
// is made at reserve time and the token is the DSRT pid.
type DSRTManager struct {
	sched *dsrt.Scheduler
}

// NewDSRTManager returns a manager delegating to the scheduler.
func NewDSRTManager(s *dsrt.Scheduler) *DSRTManager {
	return &DSRTManager{sched: s}
}

// Type implements ResourceManager.
func (m *DSRTManager) Type() string { return TypeCPUShare }

func dsrtClass(name string) dsrt.Class {
	switch name {
	case "PCPT", "pcpt":
		return dsrt.PeriodicConstant
	case "PVPT", "pvpt":
		return dsrt.PeriodicVariable
	default:
		return dsrt.Aperiodic
	}
}

// Reserve implements ResourceManager.
func (m *DSRTManager) Reserve(spec *rsl.Node, _, _ time.Time, _ string) (string, error) {
	contract := dsrt.Contract{
		Class:    dsrtClass(spec.Str("class", "APERIODIC")),
		Share:    spec.Num("share", 0),
		PeriodMS: spec.Num("period", 0),
	}
	pid, err := m.sched.Register(contract)
	if err != nil {
		return "", err
	}
	return strconv.Itoa(int(pid)), nil
}

// Modify implements ResourceManager.
func (m *DSRTManager) Modify(token string, spec *rsl.Node) error {
	pid, err := strconv.Atoi(token)
	if err != nil {
		return fmt.Errorf("gara: bad dsrt token %q", token)
	}
	return m.sched.SetShare(dsrt.PID(pid), spec.Num("share", 0))
}

// Cancel implements ResourceManager.
func (m *DSRTManager) Cancel(token string) error {
	pid, err := strconv.Atoi(token)
	if err != nil {
		return fmt.Errorf("gara: bad dsrt token %q", token)
	}
	return m.sched.Unregister(dsrt.PID(pid))
}

// Bind implements Binder: DSRT needs no extra claim step in this model;
// the registration is the contract.
func (m *DSRTManager) Bind(string) error { return nil }

// Unbind implements Binder.
func (m *DSRTManager) Unbind(string) error { return nil }

var (
	_ ResourceManager = (*DSRTManager)(nil)
	_ Binder          = (*DSRTManager)(nil)
)
