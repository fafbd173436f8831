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
	"time"

	"gqosm/internal/clockx"
	"gqosm/internal/core"
	"gqosm/internal/faultx"
	"gqosm/internal/httpapi"
	"gqosm/internal/nrm"
	"gqosm/internal/pricing"
	"gqosm/internal/resource"
	"gqosm/internal/sla"
	"gqosm/internal/stack"
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
	// timeout, bounded retries, exponential backoff). The zero
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
	// StackConfig sizes a complete single-domain G-QoSM deployment; the
	// fields are documented on stack.Config.
	StackConfig = stack.Config
	// Stack is an assembled single-domain deployment: the AQoS broker
	// wired to all its substrates, ready for in-process use or for
	// mounting on an HTTP server via Mount.
	Stack = stack.Stack
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
	// NewStack assembles a deployment — the one Fig. 5 wiring
	// (internal/stack), which the simulations run on too.
	NewStack = stack.New
)

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
