package core

import (
	"math"
	"sort"
	"sync"

	"gqosm/internal/dsrt"
	"gqosm/internal/resource"
	"gqosm/internal/sla"
)

// This file implements the resource-manager-level adaptation stage of
// §3.2: "In the case of QoS degradation the underlying resource manager
// attempts to rectify the problem by applying adaptation techniques at the
// resource management level, as outlined in [Chu & Nahrstedt]. If these
// adaptation techniques do not eliminate QoS degradation, then the AQoS
// applies adaptation techniques at the AQoS level."

// RMAdapter is the hook through which the broker asks the resource-manager
// layer to rectify a degradation before escalating to AQoS-level
// adaptation (alternative QoS, violation, termination).
type RMAdapter interface {
	// TryRectify attempts an RM-level fix for the session's degradation
	// on the measured capacity. It reports whether the degradation was
	// eliminated.
	TryRectify(id sla.ID, doc *sla.Document, measured resource.Capacity) bool
}

// DSRTAdapter rectifies CPU-side degradation through the DSRT scheduler:
// the session's processes get their contracted share boosted within the
// scheduler's admission bound — the "system-initiated adaptation" of the
// SRT work, driven here on the broker's demand. It is safe for concurrent
// use.
type DSRTAdapter struct {
	sched *dsrt.Scheduler

	mu sync.Mutex
	// procs maps a session to the DSRT processes running its service.
	procs map[sla.ID][]dsrt.PID
}

// NewDSRTAdapter returns an adapter over the scheduler.
func NewDSRTAdapter(s *dsrt.Scheduler) *DSRTAdapter {
	return &DSRTAdapter{sched: s, procs: make(map[sla.ID][]dsrt.PID)}
}

// Attach associates a session with a DSRT process (called by deployments
// that run service processes under DSRT).
func (a *DSRTAdapter) Attach(id sla.ID, pid dsrt.PID) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.procs[id] = append(a.procs[id], pid)
}

// Detach removes a session's processes.
func (a *DSRTAdapter) Detach(id sla.ID) {
	a.mu.Lock()
	defer a.mu.Unlock()
	delete(a.procs, id)
}

// TryRectify implements RMAdapter: when the degradation is on the CPU
// dimension and the scheduler has slack, the session's process shares are
// raised toward the deficit. Network-side degradations are not an RM-level
// concern here and report false. A zero CPU reading is "not measured", the
// rule handleDegradation applies: the NRM's notification for a composite
// session carries only its bandwidth.
func (a *DSRTAdapter) TryRectify(id sla.ID, doc *sla.Document, measured resource.Capacity) bool {
	want := doc.Spec.Floor().CPU
	if want <= 0 {
		return false // not a CPU degradation
	}
	have := measured.CPU
	if have == 0 || have >= want-resource.Epsilon {
		return false // CPU not measured, or fine: the degradation is elsewhere
	}
	a.mu.Lock()
	pids := append([]dsrt.PID(nil), a.procs[id]...)
	a.mu.Unlock()
	if len(pids) == 0 {
		return false
	}
	sort.Slice(pids, func(i, j int) bool { return pids[i] < pids[j] })

	// Deficit as a fraction of the session's CPU requirement, spread
	// over its processes.
	deficitFrac := (want - have) / want
	rectified := false
	for _, pid := range pids {
		p, err := a.sched.Get(pid)
		if err != nil {
			continue
		}
		target := math.Min(1.0, p.Contract.Share*(1+deficitFrac))
		if target <= p.Contract.Share+1e-9 {
			continue
		}
		if err := a.sched.SetShare(pid, target); err == nil {
			rectified = true
		}
	}
	return rectified
}

var _ RMAdapter = (*DSRTAdapter)(nil)
