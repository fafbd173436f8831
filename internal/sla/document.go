package sla

import (
	"errors"
	"fmt"
	"time"

	"gqosm/internal/resource"
)

// Class is the service-delivery class of an SLA (paper §5.1).
type Class int

// The three G-QoSM service classes.
const (
	// ClassGuaranteed: pre-defined constraints, enforced and monitored;
	// "the service provider is committed to deliver the service with the
	// exact QoS specification described in the SLA".
	ClassGuaranteed Class = iota + 1
	// ClassControlledLoad: QoS stated as parameter ranges; the provider
	// may deliver anywhere within the range. Only this class may carry
	// promotion offers.
	ClassControlledLoad
	// ClassBestEffort: no SLA; "any suitable resources found are
	// returned to the user".
	ClassBestEffort
)

// String returns the class name as printed in SLA documents (Table 4 uses
// "Controlled-load").
func (c Class) String() string {
	switch c {
	case ClassGuaranteed:
		return "Guaranteed"
	case ClassControlledLoad:
		return "Controlled-load"
	case ClassBestEffort:
		return "Best-effort"
	default:
		return fmt.Sprintf("class(%d)", int(c))
	}
}

// ParseClass parses a class name as it appears in XML documents.
func ParseClass(s string) (Class, error) {
	switch s {
	case "Guaranteed", "guaranteed":
		return ClassGuaranteed, nil
	case "Controlled-load", "controlled-load", "ControlledLoad":
		return ClassControlledLoad, nil
	case "Best-effort", "best-effort", "BestEffort":
		return ClassBestEffort, nil
	default:
		return 0, fmt.Errorf("sla: unknown QoS class %q", s)
	}
}

// State is the lifecycle state of an SLA (paper Fig. 3: Establishment,
// Active, Clearing phases).
type State int

// SLA lifecycle states.
const (
	// StateProposed: offer sent to the client, resources temporarily
	// reserved pending confirmation (§3.1).
	StateProposed State = iota + 1
	// StateEstablished: client accepted; SLA saved in the repository,
	// resources committed, service not yet invoked.
	StateEstablished
	// StateActive: service invoked; QoS monitoring and adaptation apply.
	StateActive
	// StateDegraded: delivering below agreed quality but within the
	// adaptation options; the broker is attempting restoration.
	StateDegraded
	// StateViolated: delivered QoS fell below the SLA floor.
	StateViolated
	// StateTerminated: session cleared (completion, violation, or
	// client request); resources freed.
	StateTerminated
	// StateExpired: the reservation interval elapsed.
	StateExpired
)

// String returns the state name.
func (s State) String() string {
	switch s {
	case StateProposed:
		return "proposed"
	case StateEstablished:
		return "established"
	case StateActive:
		return "active"
	case StateDegraded:
		return "degraded"
	case StateViolated:
		return "violated"
	case StateTerminated:
		return "terminated"
	case StateExpired:
		return "expired"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// Terminal reports whether the state ends the QoS session.
func (s State) Terminal() bool { return s == StateTerminated || s == StateExpired }

// validTransitions is the session state machine (Fig. 3): Establishment
// (proposed→established), Active (established→active→{degraded,violated}
// with recovery), Clearing (→terminated/expired).
var validTransitions = map[State][]State{
	StateProposed:    {StateEstablished, StateTerminated},
	StateEstablished: {StateActive, StateTerminated, StateExpired},
	StateActive:      {StateDegraded, StateViolated, StateTerminated, StateExpired},
	StateDegraded:    {StateActive, StateViolated, StateTerminated, StateExpired},
	StateViolated:    {StateActive, StateDegraded, StateTerminated, StateExpired},
}

// ErrBadTransition is returned by Document.Transition for moves the
// lifecycle does not allow.
var ErrBadTransition = errors.New("sla: invalid state transition")

// AdaptationOptions are the §5.2 negotiated adaptation terms (Table 4).
type AdaptationOptions struct {
	// AcceptDegradation marks the SLA as "willing to accept a degraded
	// QoS … to support compensation" (scenario 1).
	AcceptDegradation bool
	// AcceptTermination marks the SLA as willing to be terminated to
	// free resources for compensation (scenario 1).
	AcceptTermination bool
	// AlternativeQoS is the fallback quality (Table 4's
	// <Alternative_QoS>) the provider may switch to when the primary
	// quality cannot be sustained.
	AlternativeQoS resource.Capacity
	// HasAlternative reports whether AlternativeQoS was negotiated.
	HasAlternative bool
	// PromotionOffers records whether the client opted in to promotion
	// offers during execution (controlled-load only, §5.2).
	PromotionOffers bool
}

// Penalty is the SLA-violation penalty term (§5.2 lists "SLA violation
// penalties" among the agreed terms).
type Penalty struct {
	// PerViolation is the flat monetary penalty charged to the provider
	// for each detected violation.
	PerViolation float64
	// PerHourBelow is charged per hour the delivered QoS stays below
	// the floor.
	PerHourBelow float64
}

// ID identifies an SLA document.
type ID string

// Document is a negotiated Service Level Agreement. It is a value record —
// the broker owns mutation and persists via a Repository.
type Document struct {
	ID       ID
	Service  string // service name the agreement covers
	Client   string // client identity
	Provider string // provider / domain identity
	Class    Class
	Spec     Spec
	Adapt    AdaptationOptions
	Penalty  Penalty

	// Start and End bound the reservation validity (§5.6's [t0, t5]).
	Start, End time.Time

	// Price is the agreed total monetary cost for the session at the
	// initially allocated quality.
	Price float64

	// Allocated is the capacity currently assigned by the broker; it
	// always satisfies Spec when the state is not degraded/violated.
	Allocated resource.Capacity

	State State

	// SubSLAs lists component agreements for composite SLAs (§5.6's
	// SLA_net1, SLA_net2, SLA_comp); empty for simple SLAs.
	SubSLAs []*Document
}

// Validate checks the document for structural errors.
func (d *Document) Validate() error {
	if d.ID == "" {
		return errors.New("sla: empty ID")
	}
	if d.Class != ClassGuaranteed && d.Class != ClassControlledLoad && d.Class != ClassBestEffort {
		return fmt.Errorf("sla: unknown class %d", d.Class)
	}
	if d.Class != ClassBestEffort {
		if err := d.Spec.Validate(); err != nil {
			return fmt.Errorf("sla %s: %w", d.ID, err)
		}
		if len(d.Spec.Params) == 0 && len(d.SubSLAs) == 0 {
			return fmt.Errorf("sla %s: class %s requires QoS parameters", d.ID, d.Class)
		}
	}
	if d.Adapt.PromotionOffers && d.Class != ClassControlledLoad {
		return fmt.Errorf("sla %s: promotion offers are only valid for the controlled-load class", d.ID)
	}
	if !d.End.IsZero() && !d.End.After(d.Start) {
		return fmt.Errorf("sla %s: end %v not after start %v", d.ID, d.End, d.Start)
	}
	for _, sub := range d.SubSLAs {
		if err := sub.Validate(); err != nil {
			return fmt.Errorf("sla %s: sub-SLA: %w", d.ID, err)
		}
	}
	return nil
}

// Transition moves the document to state next, enforcing the lifecycle.
func (d *Document) Transition(next State) error {
	for _, allowed := range validTransitions[d.State] {
		if next == allowed {
			d.State = next
			return nil
		}
	}
	return fmt.Errorf("%w: %s -> %s (sla %s)", ErrBadTransition, d.State, next, d.ID)
}

// GuaranteedFloor returns g(u): the capacity the SLA guarantees (Algorithm
// 1's "guaranteed capacity with a SLA for user u"). For composite SLAs it
// sums the sub-SLA floors.
func (d *Document) GuaranteedFloor() resource.Capacity {
	if len(d.SubSLAs) == 0 {
		return d.Spec.Floor()
	}
	var sum resource.Capacity
	for _, sub := range d.SubSLAs {
		sum = sum.Add(sub.GuaranteedFloor())
	}
	return sum
}

// Clone returns a deep copy.
func (d *Document) Clone() *Document {
	c := *d
	c.Spec = d.Spec.Clone()
	if len(d.SubSLAs) > 0 {
		c.SubSLAs = make([]*Document, len(d.SubSLAs))
		for i, sub := range d.SubSLAs {
			c.SubSLAs[i] = sub.Clone()
		}
	}
	return &c
}
