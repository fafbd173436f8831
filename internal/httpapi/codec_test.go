package httpapi

import (
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"gqosm/internal/core"
	"gqosm/internal/resource"
	"gqosm/internal/sla"
)

// wantTaxonomy is the wire contract spelled out: sentinel, HTTP status,
// code. The table lives in core (shared with SOAP); bad_request is this
// binding's own row. This pins both.
var wantTaxonomy = []struct {
	err    error
	status int
	code   string
}{
	{core.ErrNoService, 404, "no_service"},
	{core.ErrUnknownSession, 404, "unknown_session"},
	{core.ErrOverBudget, 402, "over_budget"},
	{core.ErrBadState, 409, "bad_state"},
	{core.ErrCannotHonor, 409, "cannot_honor"},
	{core.ErrHandoffPending, 409, "handoff_pending"},
	{core.ErrBestEffortFull, 429, "best_effort_full"},
	{core.ErrIntakeFull, 429, "intake_full"},
	{core.ErrClosed, 503, "closed"},
	{core.ErrPeerUnavailable, 503, "peer_unavailable"},
	{core.ErrNoDomainCanServe, 503, "no_domain"},
	{errBadRequest, 400, "bad_request"},
}

// TestErrorTaxonomyRoundTrip pins the transport contract: every typed
// broker error maps to its own (status, code) pair, and decoding the
// code reconstructs an error that errors.Is-matches the original
// sentinel — remote callers branch on the same sentinels as in-process
// ones.
func TestErrorTaxonomyRoundTrip(t *testing.T) {
	for _, row := range wantTaxonomy {
		status, code := classify(fmt.Errorf("wrapped: %w", row.err))
		if status != row.status || code != row.code {
			t.Errorf("classify(%v) = (%d, %q), want (%d, %q)", row.err, status, code, row.status, row.code)
		}
		decoded := decodeError(code, "boom")
		if row.err == errBadRequest {
			// bad_request has no broker sentinel to reconstruct; the
			// decoded error must still carry the code for operators.
			if decoded == nil || !strings.Contains(decoded.Error(), code) {
				t.Errorf("decodeError(%q) = %v", code, decoded)
			}
			continue
		}
		if !errors.Is(decoded, row.err) {
			t.Errorf("decodeError(%q) does not match %v: %v", code, row.err, decoded)
		}
	}
	// Errors outside the table are internal — never leaked as a typed
	// sentinel on the wire.
	if status, code := classify(errors.New("disk on fire")); status != 500 || code != "internal" {
		t.Errorf("untyped error classified as (%d, %q)", status, code)
	}
	if err := decodeError("internal", "boom"); err == nil {
		t.Error("decodeError(internal) = nil")
	}
}

// TestTaxonomyStatusesAreDistinctPerCode guards against two sentinels
// silently collapsing onto one wire identity when rows are added: no
// sentinel matches another's code.
func TestTaxonomyStatusesAreDistinctPerCode(t *testing.T) {
	for _, row := range wantTaxonomy {
		for _, other := range wantTaxonomy {
			if row.code != other.code && errors.Is(decodeError(row.code, "boom"), other.err) {
				t.Errorf("code %q also decodes to %v", row.code, other.err)
			}
		}
	}
}

// TestRoutesCoverTheTable pins the JSON binding against the operation
// table: every route is a table row, and the only row JSON does not carry
// is verify (its reply is the Table-3 XML document). core's
// TestSOAPBindingCoversTheTable pins the other side — SOAP lacks exactly
// session and policies — so every row is reachable on some wire.
func TestRoutesCoverTheTable(t *testing.T) {
	rows := make(map[string]bool, len(core.Ops))
	var missing []string
	for _, op := range core.Ops {
		rows[op.Name] = true
		if _, ok := routes[op.Name]; !ok {
			missing = append(missing, op.Name)
		}
	}
	for name := range routes {
		if !rows[name] {
			t.Errorf("route %q is not a row of core.Ops", name)
		}
	}
	if got := strings.Join(missing, ","); got != "verify" {
		t.Errorf("rows without a JSON route = %q, want verify", got)
	}
}

func benchOffer() *core.Offer {
	return &core.Offer{
		SLA: &sla.Document{
			ID:    "site-a-sla-0042",
			State: sla.StateProposed,
			Class: sla.ClassGuaranteed,
			Allocated: resource.Capacity{
				CPU: 10, MemoryMB: 2048, DiskGB: 15, BandwidthMbps: 45,
			},
		},
		Price:      37.5,
		Expires:    time.Date(2003, 6, 16, 9, 2, 0, 0, time.UTC),
		ServiceKey: "simulation@site-a",
	}
}

// TestOfferEncodeRoundTrip: the hand-rolled appendOffer output is valid
// JSON that decodes into the wire OfferJSON the client uses.
func TestOfferEncodeRoundTrip(t *testing.T) {
	o := benchOffer()
	data := appendOffer(nil, o)
	var out OfferJSON
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatalf("appendOffer output is not JSON: %v\n%s", err, data)
	}
	if out.SLAID != string(o.SLA.ID) || out.Price != o.Price ||
		out.Class != o.SLA.Class.String() || !out.Expires.Equal(o.Expires) {
		t.Errorf("decoded %+v does not match offer %+v", out, o)
	}
	if out.Allocated.CPU != 10 || out.Allocated.BandwidthMbps != 45 {
		t.Errorf("allocated capacity lost: %+v", out.Allocated)
	}
}

// TestOfferEncodeAllocGate enforces the steady-state allocation budget
// on the JSON transport's hot-path encode: at most 8 allocs per offer
// with a pooled buffer (in practice the pooled path allocates zero; the
// gate leaves room for runtime noise).
func TestOfferEncodeAllocGate(t *testing.T) {
	o := benchOffer()
	// Warm the pool so the measurement sees steady state.
	buf := getBuf()
	*buf = appendOffer((*buf)[:0], o)
	putBuf(buf)
	avg := testing.AllocsPerRun(200, func() {
		buf := getBuf()
		*buf = appendOffer((*buf)[:0], o)
		putBuf(buf)
	})
	if avg > 8 {
		t.Errorf("offer encode allocates %.1f allocs/op, budget is 8", avg)
	}
}

// BenchmarkHTTPOfferEncode is the CI-gated number for the JSON
// transport's response encode (ns/op within tolerance, allocs/op
// exact).
func BenchmarkHTTPOfferEncode(b *testing.B) {
	o := benchOffer()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf := getBuf()
		*buf = appendOffer((*buf)[:0], o)
		putBuf(buf)
	}
}
