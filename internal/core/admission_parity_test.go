package core_test

import (
	"encoding/json"
	"errors"
	"testing"
	"time"

	"gqosm/internal/core"
	"gqosm/internal/invariant"
	"gqosm/internal/pricing"
	"gqosm/internal/resource"
	"gqosm/internal/sim"
	"gqosm/internal/sla"
	"gqosm/internal/stack"
)

// This file pins the "one admission pipeline" contract: the same request
// stream driven through every route into Broker.admit — RequestService
// with and without the intake queue, Submit+FlushIntake at batch 1 and
// batch 8 — must produce the same offers, the same error sentinels and
// the same broker state.

// parityOutcome is what a client can observe of one admission.
type parityOutcome struct {
	ID          sla.ID
	Price       float64
	Allocated   resource.Capacity
	Expires     time.Time
	Compensated bool
	// Err names the broker sentinel the refusal matches ("" on success).
	Err string
}

func sentinelName(err error) string {
	if err == nil {
		return ""
	}
	for _, s := range []struct {
		name string
		err  error
	}{
		{"no_service", core.ErrNoService},
		{"over_budget", core.ErrOverBudget},
		{"cannot_honor", core.ErrCannotHonor},
		{"intake_full", core.ErrIntakeFull},
		{"closed", core.ErrClosed},
		{"peer_unavailable", core.ErrPeerUnavailable},
	} {
		if errors.Is(err, s.err) {
			return s.name
		}
	}
	return "other"
}

func outcomeOf(offer *core.Offer, err error) parityOutcome {
	if err != nil {
		return parityOutcome{Err: sentinelName(err)}
	}
	return parityOutcome{
		ID:          offer.SLA.ID,
		Price:       offer.Price,
		Allocated:   offer.SLA.Allocated,
		Expires:     offer.Expires,
		Compensated: offer.Compensated,
	}
}

// parityDigest renders the broker state the routes must agree on:
// sessions (incl. GARA handles, so reservation order counts), per-session
// allocations, the allocator book and the ledger.
func parityDigest(t *testing.T, b *core.Broker) string {
	t.Helper()
	a := b.Allocator()
	d := struct {
		Sessions        []core.SessionInfo
		Allocated       map[sla.ID]resource.Capacity
		Guaranteed      []string
		AvailGuaranteed resource.Capacity
		AvailBestEffort resource.Capacity
		Ledger          pricing.State
	}{Sessions: b.SessionInfos(), Allocated: map[sla.ID]resource.Capacity{},
		Guaranteed: a.GuaranteedUsers(), AvailGuaranteed: a.AvailableGuaranteed(), AvailBestEffort: a.AvailableBestEffort()}
	for _, doc := range b.Sessions(nil) {
		d.Allocated[doc.ID] = doc.Allocated
	}
	b.Ledger().ExportWith(func(st pricing.State) { d.Ledger = st })
	data, err := json.Marshal(d)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

func exactCPU(client string, cpu float64) core.Request {
	return core.Request{
		Service: "simulation",
		Client:  client,
		Class:   sla.ClassGuaranteed,
		Spec:    sla.NewSpec(sla.Exact(resource.CPU, cpu)),
		Start:   sim.Epoch,
		End:     sim.Epoch.Add(2 * time.Hour),
	}
}

// parityStreams are request streams in flush groups: the batch-8 route
// submits a whole group and flushes once; every route accepts the
// group's offers before the next group, so later groups negotiate
// against established sessions. A group keeps its capacity-refused
// members at the tail — a flush installs the members it grants before
// it adapts for the ones it refuses (the pipeline's documented order),
// so a refusal ahead of a grant would legitimately reorder GARA handle
// issue against the one-at-a-time routes.
var parityStreams = []struct {
	name   string
	groups [][]core.Request
}{
	{
		// 16 guaranteed CPUs. Group 1 fills 15 of them and carries every
		// prepare/price refusal; group 2's 4-CPU ask only fits after
		// scenario-1 compensation degrades a volunteer; group 3 cannot be
		// honored even so (and still degrades the other one).
		name: "compensation",
		groups: [][]core.Request{
			{
				volunteer("cl-a"), volunteer("cl-b"),
				exactCPU("g-1", 1), exactCPU("g-2", 1), exactCPU("g-3", 1),
				withBudget(exactCPU("pauper", 1), 0.000001),
				{}, // fails validation
				unknownService(exactCPU("lost", 1)),
			},
			{exactCPU("g-4", 1), exactCPU("needs-room", 4)},
			{exactCPU("too-big", 16)},
		},
	},
}

func volunteer(client string) core.Request {
	return core.Request{
		Service:           "simulation",
		Client:            client,
		Class:             sla.ClassControlledLoad,
		Spec:              sla.NewSpec(sla.Range(resource.CPU, 2, 6)),
		Start:             sim.Epoch,
		End:               sim.Epoch.Add(2 * time.Hour),
		AcceptDegradation: true,
	}
}

func withBudget(r core.Request, budget float64) core.Request {
	r.Budget = budget
	return r
}

func unknownService(r core.Request) core.Request {
	r.Service = "no-such-service"
	return r
}

// TestAdmissionRouteParity drives each stream through the four routes and
// compares everything against the unqueued RequestService run.
func TestAdmissionRouteParity(t *testing.T) {
	routes := []struct {
		name   string
		intake core.IntakeConfig
		// admit resolves one flush group on b, in order.
		admit func(b *core.Broker, group []core.Request) []parityOutcome
	}{
		{"request-inline", core.IntakeConfig{}, requestEach},
		{"request-queued", core.IntakeConfig{Enabled: true}, requestEach},
		{"submit-batch1", core.IntakeConfig{Enabled: true, MaxBatch: 64}, func(b *core.Broker, group []core.Request) []parityOutcome {
			var out []parityOutcome
			for _, req := range group {
				out = append(out, submitGroup(b, []core.Request{req})...)
			}
			return out
		}},
		{"submit-batch8", core.IntakeConfig{Enabled: true, MaxBatch: 64}, submitGroup},
	}
	for _, stream := range parityStreams {
		t.Run(stream.name, func(t *testing.T) {
			var wantOutcomes []parityOutcome
			var wantDigest string
			for _, route := range routes {
				c, err := sim.NewCluster(stack.Config{
					Plan: core.CapacityPlan{
						Guaranteed: resource.Capacity{CPU: 16},
						Adaptive:   resource.Capacity{CPU: 4},
						BestEffort: resource.Capacity{CPU: 4},
					},
					Intake: route.intake,
				})
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(c.Close)

				var outcomes []parityOutcome
				for _, group := range stream.groups {
					got := route.admit(c.Broker, group)
					for _, o := range got {
						if o.Err == "" {
							if err := c.Broker.Accept(o.ID); err != nil {
								t.Fatalf("%s: accept %s: %v", route.name, o.ID, err)
							}
						}
					}
					outcomes = append(outcomes, got...)
				}
				if err := invariant.CheckAll(c.Broker, c.Clock.Now(), c.Pool); err != nil {
					t.Errorf("%s: %v", route.name, err)
				}
				if err := invariant.CheckIntake(c.Broker); err != nil {
					t.Errorf("%s: %v", route.name, err)
				}
				digest := parityDigest(t, c.Broker)
				if wantOutcomes == nil {
					wantOutcomes, wantDigest = outcomes, digest
					checkStreamShape(t, stream.name, outcomes)
					continue
				}
				if got, want := mustJSON(t, outcomes), mustJSON(t, wantOutcomes); got != want {
					t.Errorf("%s outcomes differ from %s:\n got: %s\nwant: %s", route.name, routes[0].name, got, want)
				}
				if digest != wantDigest {
					t.Errorf("%s state differs from %s:\n got: %s\nwant: %s", route.name, routes[0].name, digest, wantDigest)
				}
			}
		})
	}
}

func requestEach(b *core.Broker, group []core.Request) []parityOutcome {
	out := make([]parityOutcome, len(group))
	for i, req := range group {
		out[i] = outcomeOf(b.RequestService(req))
	}
	return out
}

// submitGroup queues the whole group, flushes once and resolves the
// tickets in order; a Submit refused at prepare has no ticket.
func submitGroup(b *core.Broker, group []core.Request) []parityOutcome {
	out := make([]parityOutcome, len(group))
	tickets := make([]*core.IntakeTicket, len(group))
	for i, req := range group {
		tk, err := b.Submit(req)
		if err != nil {
			out[i] = outcomeOf(nil, err)
		}
		tickets[i] = tk
	}
	b.FlushIntake()
	for i, tk := range tickets {
		if tk != nil {
			out[i] = outcomeOf(tk.Wait())
		}
	}
	return out
}

// checkStreamShape guards the streams themselves: parity over a stream
// that no longer compensates would pin nothing.
func checkStreamShape(t *testing.T, stream string, outcomes []parityOutcome) {
	t.Helper()
	count := func(pred func(parityOutcome) bool) (n int) {
		for _, o := range outcomes {
			if pred(o) {
				n++
			}
		}
		return n
	}
	refusals := func(name string) int {
		return count(func(o parityOutcome) bool { return o.Err == name })
	}
	switch stream {
	case "compensation":
		if n := count(func(o parityOutcome) bool { return o.Compensated }); n != 1 {
			t.Errorf("compensated offers = %d, want 1", n)
		}
		if refusals("over_budget") != 1 || refusals("no_service") != 1 || refusals("other") != 1 || refusals("cannot_honor") != 1 {
			t.Errorf("refusal mix off: %+v", outcomes)
		}
	}
}

func mustJSON(t *testing.T, v any) string {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}
