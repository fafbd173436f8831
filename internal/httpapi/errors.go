package httpapi

// The broker's error taxonomy (sentinel ↔ wire code) lives in
// internal/core, shared with the SOAP transport; this file adds what is
// HTTP's own: the status each code travels under, and the bad_request
// code for inputs rejected before any broker call.

import (
	"errors"
	"fmt"
	"net/http"

	"gqosm/internal/core"
)

// ErrTransport wraps transport-level failures (connection refused,
// reset, torn responses): the request may or may not have reached the
// broker, so callers may retry idempotent operations. Typed API errors
// are definitive answers and never wrapped in it.
var ErrTransport = errors.New("httpapi: transport error")

// errBadRequest marks malformed inputs rejected before any broker call
// (unparseable JSON, unknown fields, missing IDs).
var errBadRequest = errors.New("httpapi: bad request")

// statuses maps every wire code to its HTTP status; each (status, code)
// pair is distinct.
var statuses = map[string]int{
	"no_service":       http.StatusNotFound,
	"unknown_session":  http.StatusNotFound,
	"over_budget":      http.StatusPaymentRequired,
	"bad_state":        http.StatusConflict,
	"cannot_honor":     http.StatusConflict,
	"handoff_pending":  http.StatusConflict,
	"best_effort_full": http.StatusTooManyRequests,
	"intake_full":      http.StatusTooManyRequests,
	"closed":           http.StatusServiceUnavailable,
	"peer_unavailable": http.StatusServiceUnavailable,
	"bad_request":      http.StatusBadRequest,
	"internal":         http.StatusInternalServerError,
}

// classify maps an error to its wire (status, code); errors outside the
// taxonomy are internal, and so is the status of a code core grew before
// this table did.
func classify(err error) (int, string) {
	code := core.WireCode(err)
	switch {
	case code != "":
	case errors.Is(err, errBadRequest):
		code = "bad_request"
	default:
		code = "internal"
	}
	status, ok := statuses[code]
	if !ok {
		status = http.StatusInternalServerError
	}
	return status, code
}

// decodeError reconstructs a typed error from a wire (code, message)
// pair so client-side errors.Is matches the broker's sentinels.
func decodeError(code, message string) error {
	return core.WireError(code, fmt.Errorf("httpapi: %s (%s)", message, code))
}
