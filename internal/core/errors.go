package core

import "errors"

// The broker's error taxonomy, the single source for both transports:
// every typed broker error has one machine-readable wire code. The
// server side puts the code on the wire (SOAP in the fault's detail, the
// JSON API in its error body beside an HTTP status) and the client side
// maps it back onto the same sentinel, so errors.Is works identically
// against a remote broker over either transport and an in-process one.
// Adding a broker sentinel means adding a row here (and an HTTP status in
// internal/httpapi).
var taxonomy = []struct {
	err  error
	code string
}{
	{ErrNoService, "no_service"},
	{ErrUnknownSession, "unknown_session"},
	{ErrOverBudget, "over_budget"},
	{ErrBadState, "bad_state"},
	{ErrCannotHonor, "cannot_honor"},
	{ErrHandoffPending, "handoff_pending"},
	{ErrBestEffortFull, "best_effort_full"},
	{ErrIntakeFull, "intake_full"},
	{ErrClosed, "closed"},
	{ErrPeerUnavailable, "peer_unavailable"},
}

// WireCode classifies err for the wire: the code of the first taxonomy
// sentinel it wraps (fmt.Errorf chains classify like their sentinel), or
// "" for nil and for errors outside the taxonomy.
func WireCode(err error) string {
	if err == nil {
		return ""
	}
	for _, t := range taxonomy {
		if errors.Is(err, t.err) {
			return t.code
		}
	}
	return ""
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
