package httpapi

// The broker's error taxonomy (sentinel ↔ wire code ↔ HTTP status) lives
// in internal/core, shared with the SOAP transport; this file adds what
// is this binding's own: too_large, and internal outside the taxonomy.

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

// classify maps an error to its wire (status, code): the taxonomy's pair
// for a broker sentinel (core.ErrInvalidRequest, bad_request, for input
// rejected before any broker call), too_large, internal for the rest.
func classify(err error) (int, string) {
	if code, status := core.WireStatus(err); code != "" {
		return status, code
	}
	if errors.Is(err, errTooLarge) {
		return http.StatusRequestEntityTooLarge, "too_large"
	}
	return http.StatusInternalServerError, "internal"
}

// decodeError reconstructs a typed error from a wire (code, message)
// pair so client-side errors.Is matches the broker's sentinels.
func decodeError(code, message string) error {
	return core.WireError(code, fmt.Errorf("httpapi: %s (%s)", message, code))
}
