package core

import (
	"errors"
	"net/http"

	"gqosm/internal/resource"
	"gqosm/internal/sla"
)

// The broker's error taxonomy, the single source for both transports:
// every typed broker error has one machine-readable wire code and the
// HTTP status it travels under. The server side puts the code on the wire
// (SOAP in the fault's detail, the JSON API in its error body beside the
// status) and the client side maps it back onto the same sentinel, so
// errors.Is works identically against a remote broker over either
// transport and an in-process one. Adding a broker sentinel means adding
// a row here.
var taxonomy = []struct {
	err    error
	code   string
	status int
}{
	{ErrNoService, "no_service", http.StatusNotFound},
	{ErrUnknownSession, "unknown_session", http.StatusNotFound},
	{ErrOverBudget, "over_budget", http.StatusPaymentRequired},
	{ErrBadState, "bad_state", http.StatusConflict},
	{ErrCannotHonor, "cannot_honor", http.StatusConflict},
	{ErrHandoffPending, "handoff_pending", http.StatusConflict},
	{ErrBestEffortFull, "best_effort_full", http.StatusTooManyRequests},
	{ErrIntakeFull, "intake_full", http.StatusTooManyRequests},
	{ErrClosed, "closed", http.StatusServiceUnavailable},
	{ErrPeerUnavailable, "peer_unavailable", http.StatusServiceUnavailable},
	{ErrNoDomainCanServe, "no_domain", http.StatusServiceUnavailable},
	{ErrInvalidRequest, "bad_request", http.StatusBadRequest},
}

// WireStatus classifies err for the wire: the code and HTTP status of the
// first taxonomy sentinel it wraps (fmt.Errorf chains classify like
// their sentinel), or ("", 0) for nil and for errors outside the
// taxonomy.
func WireStatus(err error) (code string, status int) {
	if err == nil {
		return "", 0
	}
	for _, t := range taxonomy {
		if errors.Is(err, t.err) {
			return t.code, t.status
		}
	}
	return "", 0
}

// WireCode is the code half of WireStatus.
func WireCode(err error) string {
	code, _ := WireStatus(err)
	return code
}

// WireError is WireCode's inverse on the client side: it returns cause —
// the transport's own rendering of the failure — made to also match the
// sentinel the code names. A code outside the taxonomy returns cause
// unchanged.
func WireError(code string, cause error) error {
	for _, t := range taxonomy {
		if t.code == code {
			return &wireError{cause: cause, sentinel: t.err}
		}
	}
	return cause
}

// wireError reads as the transport error it carries and unwraps to both
// that error and the broker sentinel.
type wireError struct{ cause, sentinel error }

func (e *wireError) Error() string   { return e.cause.Error() }
func (e *wireError) Unwrap() []error { return []error{e.cause, e.sentinel} }

// A Refusal is the broker's refusal for capacity: the allocator's
// Algorithm-1 answer that even the floor does not fit (ErrCannotHonor) or
// that best-effort capacity is exhausted (ErrBestEffortFull), a
// compensation that freed too little, and the request that then reports
// one of those; a failed renegotiation reports its error, whatever it is,
// the same way. It keeps the numbers the decision compared; the text is
// rendered only by Error, and reads as the fmt.Errorf chain each site
// used to build.
type Refusal struct {
	// Err is what the refusal wraps: the taxonomy sentinel of the
	// allocator's own refusal (nil for a compensation shortfall), or the
	// error a request or renegotiation reports.
	Err error
	// ID is the allocator user the refusal is for (an SLA ID or a
	// best-effort client), or the SLA of the request or renegotiation.
	ID string
	// Need is the capacity asked for (a floor, a best-effort request, what
	// compensation had to free) and Avail what the bound left it. A
	// refusal that reports on another copies both.
	Need, Avail resource.Capacity
	// Cause is why scenario-1 compensation failed before the refusal. It
	// is rendered, not wrapped: errors.Is does not see through it.
	Cause error
	form  refusalForm
}

// refusalForm selects the text of a refusal: one per site that refuses.
type refusalForm uint8

const (
	refusedRegrant       refusalForm = iota // a held grant's floor does not fit
	refusedFloor                            // a new user's floor does not fit
	refusedBestEffort                       // best-effort capacity is exhausted
	compensationShort                       // compensation freed too little
	requestRefused                          // a request refused, then its compensation failed
	retryRefused                            // a request refused again after compensation
	renegotiationRefused                    // a renegotiation failed, after a failed compensation or not
)

// reportRefusal is the refusal a request or renegotiation id reports for
// err, carrying err's capacities when err is a refusal itself.
func reportRefusal(form refusalForm, id sla.ID, err, cause error) *Refusal {
	r := &Refusal{Err: err, ID: string(id), Cause: cause, form: form}
	if in, ok := err.(*Refusal); ok {
		r.Need, r.Avail = in.Need, in.Avail
	}
	return r
}

func (r *Refusal) Unwrap() error { return r.Err }

func (r *Refusal) Error() string {
	var arr [256]byte
	buf := arr[:0]
	switch r.form {
	case refusedRegrant, refusedFloor:
		buf = append(buf, r.Err.Error()...)
		buf = append(buf, ": user "...)
		buf = append(buf, r.ID...)
		buf = append(buf, " needs "...)
		if r.form == refusedFloor {
			buf = append(buf, "floor "...)
		}
		buf = r.Need.AppendText(buf)
		buf = append(buf, ", only "...)
		buf = r.Avail.AppendText(buf)
		if r.form == refusedRegrant {
			buf = append(buf, " guaranteed-capacity"...)
		}
		buf = append(buf, " available"...)
	case refusedBestEffort:
		buf = append(buf, r.Err.Error()...)
		buf = append(buf, ": requested "...)
		buf = r.Need.AppendText(buf)
		buf = append(buf, ", available "...)
		buf = r.Avail.AppendText(buf)
	case compensationShort:
		buf = append(buf, "core: compensation freed insufficient capacity for "...)
		buf = r.Need.AppendText(buf)
	case retryRefused:
		buf = append(buf, "request "...)
		buf = append(buf, r.ID...)
		buf = append(buf, " after compensation: "...)
		buf = append(buf, r.Err.Error()...)
	default: // requestRefused, renegotiationRefused
		if r.form == requestRefused {
			buf = append(buf, "request "...)
		} else {
			buf = append(buf, "core: renegotiate "...)
		}
		buf = append(buf, r.ID...)
		buf = append(buf, ": "...)
		buf = append(buf, r.Err.Error()...)
		if r.Cause != nil {
			buf = append(buf, " (compensation: "...)
			buf = append(buf, r.Cause.Error()...)
			buf = append(buf, ')')
		}
	}
	return string(buf)
}
