package core

import (
	"errors"
	"net/http"
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
