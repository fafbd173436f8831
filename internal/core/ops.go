package core

import (
	"fmt"

	"gqosm/internal/obs"
	"gqosm/internal/resource"
	"gqosm/internal/sla"
)

// This file is the broker's wire surface, defined once: the Fig. 5 client
// messages (plus the management reads) as one table of named operations
// over transport-neutral arguments and results. The SOAP binding
// (transport.go) and the JSON binding (internal/httpapi) are codecs over
// it — each adds only how a row's arguments arrive and how its result
// leaves on that wire — and both meter through the same Dispatcher.

// OpArgs is the input of a lifecycle operation. Each row reads the
// fields its operation needs and ignores the rest.
type OpArgs struct {
	// ID names the session (every operation but request, best-effort and
	// load).
	ID sla.ID
	// Reason is the client's reason for a terminate.
	Reason string
	// Request is the admission request.
	Request Request
	// Spec is the replacement QoS specification of a renegotiate.
	Spec sla.Spec
	// Client, Amount and Release are the best-effort grant or release.
	Client  string
	Amount  resource.Capacity
	Release bool
}

// OpResult is the output of a lifecycle operation: the fields the row
// produced are set, the rest are zero.
type OpResult struct {
	// Offer is the proposed SLA of a request; Domain names the serving
	// domain when the request went through a federation.
	Offer  *Offer
	Domain string
	// Session is the session document (session).
	Session *sla.Document
	// Detail is the acknowledgement detail of an action.
	Detail string
	// Levels is the Table-3 reply of a verify.
	Levels *QoSLevelsXML
	// Load is the management read.
	Load LoadReport
}

// Op is one row of the operation table.
type Op struct {
	// Name is the operation's name on every wire: the JSON path, the
	// SOAP sla_action Action, and the op label of the transport metrics.
	Name string
	run  func(b *Broker, a OpArgs) (OpResult, error)
}

// Ops is the operation table, in the order of a session's life.
var Ops = []Op{
	{"request", func(b *Broker, a OpArgs) (OpResult, error) {
		// A federated broker (Federation.Mount) admits through its
		// neighbors; the offer names the domain that holds the session.
		if fed := b.fed.Load(); fed != nil {
			offer, err := fed.RequestService(a.Request)
			if err != nil {
				return OpResult{}, err
			}
			return OpResult{Offer: &offer.Offer, Domain: offer.Domain}, nil
		}
		offer, err := b.RequestService(a.Request)
		return OpResult{Offer: offer}, err
	}},
	{"accept", func(b *Broker, a OpArgs) (OpResult, error) {
		return OpResult{}, b.Accept(a.ID)
	}},
	{"reject", func(b *Broker, a OpArgs) (OpResult, error) {
		return OpResult{}, b.Reject(a.ID)
	}},
	{"invoke", func(b *Broker, a OpArgs) (OpResult, error) {
		job, err := b.Invoke(a.ID)
		if err != nil {
			return OpResult{}, err
		}
		return OpResult{Detail: fmt.Sprintf("job %s pid %d", job.ID, job.PID)}, nil
	}},
	{"terminate", func(b *Broker, a OpArgs) (OpResult, error) {
		return OpResult{}, b.Terminate(a.ID, nonEmpty(a.Reason, "terminated by client"))
	}},
	{"accept_promotion", func(b *Broker, a OpArgs) (OpResult, error) {
		return OpResult{}, b.AcceptPromotion(a.ID)
	}},
	{"verify", func(b *Broker, a OpArgs) (OpResult, error) {
		rep, err := b.Verify(a.ID)
		if err != nil {
			return OpResult{}, err
		}
		return OpResult{Levels: &rep.XML}, nil
	}},
	{"renegotiate", func(b *Broker, a OpArgs) (OpResult, error) {
		res, err := b.Renegotiate(a.ID, a.Spec)
		if err != nil {
			return OpResult{}, err
		}
		return OpResult{Detail: fmt.Sprintf("reallocated %v -> %v, price %+.2f",
			res.Old, res.New, res.PriceDelta)}, nil
	}},
	{"best-effort", func(b *Broker, a OpArgs) (OpResult, error) {
		if a.Release {
			return OpResult{}, b.BestEffortRelease(a.Client)
		}
		if err := b.BestEffortRequest(a.Client, a.Amount); err != nil {
			return OpResult{}, err
		}
		return OpResult{Detail: "granted " + a.Amount.String()}, nil
	}},
	{"session", func(b *Broker, a OpArgs) (OpResult, error) {
		doc, err := b.Session(a.ID)
		return OpResult{Session: doc}, err
	}},
	{"load", func(b *Broker, _ OpArgs) (OpResult, error) {
		return OpResult{Load: b.LoadReport()}, nil
	}},
}

// Dispatcher runs table rows against one broker on behalf of one
// transport binding and keeps that transport's traffic counters. The
// counters are registered from the table's names, so every transport
// reports the same op vocabulary.
type Dispatcher struct {
	b    *Broker
	rows map[string]meteredOp
	errs *obs.Counter
}

type meteredOp struct {
	op   *Op
	reqs *obs.Counter
}

// NewDispatcher returns the dispatcher of the named transport ("soap",
// "http") over the broker.
func NewDispatcher(b *Broker, transport string) *Dispatcher {
	d := &Dispatcher{
		b:    b,
		rows: make(map[string]meteredOp, len(Ops)),
		errs: b.obs.Counter("gqosm_transport_errors_total",
			"Requests answered with an error, per transport", "transport", transport),
	}
	for i := range Ops {
		op := &Ops[i]
		d.rows[op.Name] = meteredOp{op, b.obs.Counter("gqosm_transport_requests_total",
			"Requests served per transport and operation",
			"transport", transport, "op", op.Name)}
	}
	return d
}

// Run counts one request against the named row and executes it. The
// binding decides which names it exposes; a name outside the table is an
// error like any other.
func (d *Dispatcher) Run(name string, a OpArgs) (OpResult, error) {
	row, ok := d.rows[name]
	if !ok {
		return OpResult{}, fmt.Errorf("core: unknown operation %q", name)
	}
	row.reqs.Inc()
	return row.op.run(d.b, a)
}

// Failed counts one request the transport answered with an error —
// called from the binding's single error exit, so a body that never
// decoded is counted like a refusal from the broker.
func (d *Dispatcher) Failed() { d.errs.Inc() }
