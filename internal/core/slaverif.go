package core

import (
	"encoding/xml"
	"fmt"
	"time"

	"gqosm/internal/gara"
	"gqosm/internal/nrm"
	"gqosm/internal/pricing"
	"gqosm/internal/resource"
	"gqosm/internal/sla"
)

// This file is the SLA-Verif component (§3.2): on-demand SLA conformance
// tests producing the Table-3 <QoS_Levels> reply, plus scenario-3
// degradation handling fed by NRM notifications.

// QoSLevelsXML mirrors Table 3: the XML message after a SLA conformance
// test showing measured QoS levels.
type QoSLevelsXML struct {
	XMLName  xml.Name            `xml:"QoS_Levels"`
	SLAID    string              `xml:"SLA-ID"`
	Network  *MeasuredNetworkXML `xml:"Measured_Network_QoS,omitempty"`
	Compute  *MeasuredComputeXML `xml:"Measured_Computation_QoS,omitempty"`
	Conforms bool                `xml:"Conforms"`
}

// MeasuredNetworkXML is the <Measured_Network_QoS> element of Table 3.
type MeasuredNetworkXML struct {
	SourceIP   string `xml:"Source_IP"`
	DestIP     string `xml:"Dest_IP"`
	Bandwidth  string `xml:"Bandwidth"`
	PacketLoss string `xml:"Packet_Loss,omitempty"`
	Delay      string `xml:"Delay,omitempty"`
}

// MeasuredComputeXML reports the delivered computation QoS.
type MeasuredComputeXML struct {
	CPU    string `xml:"CPU-QoS,omitempty"`
	Memory string `xml:"Memory-QoS,omitempty"`
	Disk   string `xml:"Disk-QoS,omitempty"`
}

// ConformanceReport is the result of a Verify call.
type ConformanceReport struct {
	SLA      sla.ID
	At       time.Time
	Measured resource.Capacity
	// Conforms reports whether every measured dimension satisfies the
	// SLA (within its acceptable levels).
	Conforms bool
	// Degraded lists the dimensions delivering below the agreed
	// allocation.
	Degraded []resource.Kind
	// XML is the Table-3 wire document.
	XML QoSLevelsXML
}

// Verify runs an SLA conformance test "on an explicit request by the
// client/application" (§3.2): it gathers measured QoS levels from the NRM
// (network) and MDS (computation), compares them against the SLA, and
// returns the Table-3 reply. A non-conformant result triggers scenario-3
// adaptation.
func (b *Broker) Verify(id sla.ID) (*ConformanceReport, error) {
	sh := b.shardFor(id)
	if sh == nil {
		return nil, fmt.Errorf("%w: %s", ErrUnknownSession, id)
	}
	sh.mu.Lock()
	s, ok := sh.sessions[id]
	if !ok {
		sh.mu.Unlock()
		return nil, fmt.Errorf("%w: %s", ErrUnknownSession, id)
	}
	if state := s.doc.State; state.Terminal() || state == sla.StateProposed {
		sh.mu.Unlock()
		return nil, fmt.Errorf("%w: %s is %s", ErrBadState, id, state)
	}
	doc := s.doc.Clone()
	handle := s.handle
	sh.mu.Unlock()

	now := b.clock.Now()
	report := &ConformanceReport{
		SLA:      id,
		At:       now,
		Measured: doc.Allocated,
		Conforms: true,
		XML:      QoSLevelsXML{SLAID: string(id)},
	}

	// Network: measure the session's flow through the NRM.
	if _, wantNet := doc.Spec.Params[resource.BandwidthMbps]; wantNet && b.cfg.NRM != nil {
		meas, err := b.measureFlow(id, handle, now)
		if err == nil {
			report.Measured.BandwidthMbps = meas.BandwidthMbps
			report.XML.Network = &MeasuredNetworkXML{
				SourceIP:  doc.Spec.SourceIP,
				DestIP:    doc.Spec.DestIP,
				Bandwidth: fmt.Sprintf("%s Mbps", trimFloat(meas.BandwidthMbps)),
				Delay:     fmt.Sprintf("%sms", trimFloat(meas.DelayMS)),
			}
			if doc.Spec.MaxPacketLossPct > 0 {
				report.XML.Network.PacketLoss = fmt.Sprintf("LessThan %s%%", trimFloat(doc.Spec.MaxPacketLossPct))
				if meas.LossPct > doc.Spec.MaxPacketLossPct {
					report.XML.Network.PacketLoss = fmt.Sprintf("%s%%", trimFloat(meas.LossPct))
					report.Conforms = false
					report.Degraded = append(report.Degraded, resource.BandwidthMbps)
				}
			}
			if meas.BandwidthMbps < doc.Allocated.BandwidthMbps*0.99 {
				report.Conforms = false
				report.Degraded = appendKind(report.Degraded, resource.BandwidthMbps)
			}
		}
	}

	// Computation: the delivered level is the allocation scaled by the
	// allocator's coverage — below 1 only when failures exceed the
	// adaptive reserve (the §5.6 t2 condition taken past its limit).
	if hasComputeParams(doc.Spec) {
		coverage := sh.alloc.Coverage()
		report.Measured.CPU = doc.Allocated.CPU * coverage.CPU
		report.Measured.MemoryMB = doc.Allocated.MemoryMB * coverage.MemoryMB
		report.Measured.DiskGB = doc.Allocated.DiskGB * coverage.DiskGB
		report.XML.Compute = &MeasuredComputeXML{}
		if _, ok := doc.Spec.Params[resource.CPU]; ok {
			report.XML.Compute.CPU = fmt.Sprintf("%s CPU", trimFloat(report.Measured.CPU))
		}
		if _, ok := doc.Spec.Params[resource.MemoryMB]; ok {
			report.XML.Compute.Memory = fmt.Sprintf("%sMB", trimFloat(report.Measured.MemoryMB))
		}
		if _, ok := doc.Spec.Params[resource.DiskGB]; ok {
			report.XML.Compute.Disk = fmt.Sprintf("%sGB", trimFloat(report.Measured.DiskGB))
		}
	}

	// The SLA floor is the violation threshold.
	floor := doc.Spec.Floor()
	for _, k := range doc.Spec.Kinds() {
		if report.Measured.Get(k) < floor.Get(k)-resource.Epsilon {
			report.Conforms = false
			report.Degraded = appendKind(report.Degraded, k)
		}
	}
	report.XML.Conforms = report.Conforms

	b.logf("verify", id, "conformance test: conforms=%v measured=%v", report.Conforms, report.Measured)
	if !report.Conforms {
		b.handleDegradation(id, report.Measured)
	}
	return report, nil
}

// measureFlow resolves the session's network reservation to its NRM flow
// and measures it. Reservations are tagged with the SLA ID at creation,
// so when Modify has re-issued the flow under a new ID the lookup falls
// back to tag matching.
func (b *Broker) measureFlow(id sla.ID, handle gara.Handle, now time.Time) (nrm.Measurement, error) {
	res, err := b.cfg.GARA.Get(handle)
	if err != nil {
		return nrm.Measurement{}, err
	}
	token, ok := res.Parts[gara.TypeNetwork]
	if !ok {
		return nrm.Measurement{}, fmt.Errorf("core: reservation holds no network part")
	}
	if m, err := b.cfg.NRM.Measure(nrm.FlowID(token), now); err == nil {
		return m, nil
	}
	for _, f := range b.cfg.NRM.Flows() {
		if f.Tag == string(id) {
			return b.cfg.NRM.Measure(f.ID, now)
		}
	}
	return nrm.Measurement{}, fmt.Errorf("core: no flow for reservation %s", handle)
}

// onNetworkDegradation is the NRM's notification hook (§3.2: "when the
// network QoS degrades, the NRM notifies the SLA-Verif system").
func (b *Broker) onNetworkDegradation(flow nrm.Flow, m nrm.Measurement) {
	if b.closed.Load() {
		// The NRM has no unsubscribe: a crashed/closed broker stays on
		// the notification list, and reacting here would mutate state a
		// recovered successor now owns.
		return
	}
	id := sla.ID(flow.Tag)
	sh := b.shardFor(id)
	if sh == nil {
		return
	}
	sh.mu.Lock()
	_, ok := sh.sessions[id]
	sh.mu.Unlock()
	if !ok {
		return
	}
	b.logf("degradation", id, "NRM reports %s delivering %s/%s Mbps",
		flow.ID, trimFloat(m.BandwidthMbps), trimFloat(flow.Mbps))
	measured := resource.Capacity{BandwidthMbps: m.BandwidthMbps}
	b.handleDegradation(id, measured)
}

// handleDegradation implements scenario 3: "QoS falls below the specified
// QoS level in the SLA. … Adaptation is used, if possible, to restore the
// degraded QoS to an acceptable QoS as defined in the SLA." The response
// ladder (§4): (a) restore the agreed QoS; (b) re-negotiate to the
// alternative QoS in the SLA; (c) terminate on major degradation.
func (b *Broker) handleDegradation(id sla.ID, measured resource.Capacity) {
	sh := b.shardFor(id)
	if sh == nil {
		return
	}
	sh.mu.Lock()
	s, ok := sh.sessions[id]
	if !ok || s.doc.State.Terminal() {
		sh.mu.Unlock()
		return
	}
	doc := s.doc.Clone()
	sh.mu.Unlock()

	floor := doc.Spec.Floor()

	// RM level first (§3.2): "the underlying resource manager attempts
	// to rectify the problem by applying adaptation techniques at the
	// resource management level"; only when that fails does the AQoS
	// adapt. The probe runs under the per-attempt timeout with no
	// retries — a hung or unreachable RM must not stall the monitor
	// loop, and a second probe has no value: either way the ladder
	// continues as if the RM could not help.
	if b.cfg.RM != nil {
		rectified := false
		err := b.pol.callOnce("rm.rectify", func() error {
			rectified = b.cfg.RM.TryRectify(id, doc, measured)
			return nil
		})
		if err != nil {
			b.logf("adapt", id, "RM rectify probe failed (%v); continuing adaptation ladder", err)
		} else if rectified {
			b.logf("adapt", id, "degradation rectified at the resource-manager level")
			return
		}
	}

	// (a) Restore: if the allocator has headroom, re-grant the agreed
	// quality (covers compute failures absorbed by the adaptive pool —
	// the grant itself already survives; restoration applies when we
	// were previously degraded).
	if err := b.restore(id); err == nil {
		b.logf("adapt", id, "restored agreed QoS (scenario 3a)")
		return
	}

	// Determine how bad the degradation is on the measured dimensions.
	violated := false
	for _, k := range doc.Spec.Kinds() {
		mv := measured.Get(k)
		if mv == 0 && k != resource.BandwidthMbps {
			continue // dimension not measured
		}
		if mv < floor.Get(k)-resource.Epsilon {
			violated = true
		}
	}

	if violated {
		b.recordViolation(id)
	}

	// (b) Re-negotiate to the alternative QoS when the SLA carries one
	// and we are not already there.
	if doc.Adapt.HasAlternative && !doc.Allocated.Equal(doc.Adapt.AlternativeQoS) &&
		doc.Adapt.AlternativeQoS.FitsIn(doc.Allocated) {
		if _, err := b.reallocate(sh, id, move{
			target: doc.Adapt.AlternativeQoS, notes: qualityNotes, mark: markDegraded,
			event: "adapt", msg: "switched to alternative QoS %[2]v (scenario 3b)",
			count: b.met.degraded, // scenario 3b
		}); err == nil {
			return
		}
	}

	// (c) Major degradation with no recourse: alert, and terminate after
	// repeated violations.
	if violated && b.Violations(id) >= 3 {
		_ = b.Terminate(id, "terminated due to major QoS degradation (scenario 3c)")
	}
}

// recordViolation marks the session violated and charges the penalty.
func (b *Broker) recordViolation(id sla.ID) {
	sh := b.shardFor(id)
	if sh == nil {
		return
	}
	sh.mu.Lock()
	s, ok := sh.sessions[id]
	if !ok {
		sh.mu.Unlock()
		return
	}
	s.violations++
	if s.doc.State == sla.StateActive || s.doc.State == sla.StateDegraded {
		_ = s.doc.Transition(sla.StateViolated)
	}
	pen := s.doc.Penalty
	count := s.violations
	b.logf("violation", id, "SLA violation #%d detected", count)
	sh.mu.Unlock()
	b.met.violations.Inc()

	if amount := pricing.PenaltyFor(pen, 0); amount > 0 {
		b.ledger.Penalize(id, amount, b.clock.Now(), "SLA violation")
	}
	b.journal("persist", id)
}

// Violations reports the violation count for a session.
func (b *Broker) Violations(id sla.ID) int {
	sh := b.shardFor(id)
	if sh == nil {
		return 0
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if s, ok := sh.sessions[id]; ok {
		return s.violations
	}
	return 0
}

// ExpireDue transitions every session whose validity window has elapsed
// (the Clearing trigger "resource reservation expiration"), returning the
// expired IDs.
func (b *Broker) ExpireDue() []sla.ID {
	now := b.clock.Now()
	var due []sla.ID
	for _, sh := range b.shards {
		sh.mu.Lock()
		for id, s := range sh.sessions {
			if s.doc.State.Terminal() || s.doc.State == sla.StateProposed {
				continue
			}
			if !s.doc.End.IsZero() && !now.Before(s.doc.End) {
				due = append(due, id)
			}
		}
		sh.mu.Unlock()
	}
	sortIDs(due)
	for _, id := range due {
		_ = b.Expire(id)
	}
	return due
}

// NotifyFailure informs the broker of failed capacity (the §5.6 t2
// event): the allocator adapts, preempting best-effort borrowers, and the
// event is logged. Recovery is signalled with the zero capacity. The
// failure is split evenly across shards — each absorbs its share through
// its own adaptive reserve — and the preemptions are concatenated in
// shard order.
func (b *Broker) NotifyFailure(offline resource.Capacity) []Preemption {
	defer b.debugCheck("failure")
	if !offline.IsZero() {
		b.met.failures.Inc()
	}
	share := offline
	if n := len(b.shards); n > 1 {
		share = offline.Scale(1 / float64(n))
	}
	var pre []Preemption
	for _, sh := range b.shards {
		pre = append(pre, sh.alloc.SetOffline(share)...)
	}
	b.journalOffline("offline")
	if offline.IsZero() {
		b.logf("failure", "", "capacity recovered; adaptive reserve replenished")
	} else {
		b.logf("failure", "", "capacity %v inaccessible; adaptive pool covering, %d best-effort preemption(s)",
			offline, len(pre))
	}
	return pre
}

func hasComputeParams(s sla.Spec) bool {
	for _, k := range []resource.Kind{resource.CPU, resource.MemoryMB, resource.DiskGB} {
		if _, ok := s.Params[k]; ok {
			return true
		}
	}
	return false
}

func appendKind(ks []resource.Kind, k resource.Kind) []resource.Kind {
	for _, existing := range ks {
		if existing == k {
			return ks
		}
	}
	return append(ks, k)
}

func sortIDs(ids []sla.ID) {
	for i := 1; i < len(ids); i++ {
		for j := i; j > 0 && ids[j] < ids[j-1]; j-- {
			ids[j], ids[j-1] = ids[j-1], ids[j]
		}
	}
}
