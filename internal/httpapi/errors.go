package httpapi

// The broker's error taxonomy (sentinel ↔ wire code ↔ HTTP status) lives
// in internal/core, shared with the SOAP transport; this file adds what
// is this binding's own: the bad_request code for inputs rejected before
// any broker call, and internal for errors outside the taxonomy.

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

// classify maps an error to its wire (status, code): the taxonomy's pair
// for a broker sentinel, bad_request for errBadRequest, internal for
// everything else.
func classify(err error) (int, string) {
	code, status := core.WireStatus(err)
	switch {
	case code != "":
		return status, code
	case errors.Is(err, errBadRequest):
		return http.StatusBadRequest, "bad_request"
	default:
		return http.StatusInternalServerError, "internal"
	}
}

// decodeError reconstructs a typed error from a wire (code, message)
// pair so client-side errors.Is matches the broker's sentinels.
func decodeError(code, message string) error {
	return core.WireError(code, fmt.Errorf("httpapi: %s (%s)", message, code))
}
