package httpapi

import (
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"runtime/debug"
	"slices"
	"strings"
	"testing"
	"time"

	"gqosm/internal/core"
	"gqosm/internal/resource"
	"gqosm/internal/sla"
)

// wantTaxonomy is the wire contract spelled out: sentinel, HTTP status,
// code. The table lives in core, shared with SOAP; this pins it.
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
	{core.ErrInvalidRequest, 400, "bad_request"},
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
		if decoded := decodeError(code, "boom"); !errors.Is(decoded, row.err) {
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
// session — so every row is reachable on some wire.
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

// TestOfferEncodeRoundTrip: the hand-rolled encodeOffer output is valid
// JSON that decodes into the wire OfferJSON the client uses.
func TestOfferEncodeRoundTrip(t *testing.T) {
	o := benchOffer()
	data := encodeOffer(nil, core.OpResult{Offer: o})
	var out OfferJSON
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatalf("encodeOffer output is not JSON: %v\n%s", err, data)
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
	*buf = encodeOffer((*buf)[:0], core.OpResult{Offer: o})
	putBuf(buf)
	avg := testing.AllocsPerRun(200, func() {
		buf := getBuf()
		*buf = encodeOffer((*buf)[:0], core.OpResult{Offer: o})
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
		*buf = encodeOffer((*buf)[:0], core.OpResult{Offer: o})
		putBuf(buf)
	}
}

// The bodies the JSON decode gates read: a request as the bench client
// sends one, an action, and the offer and acknowledgement replies.
var (
	gateRequest = []byte(`{"service":"simulation","client":"client-00042","class":"guaranteed",` +
		`"spec":{"params":{"cpu":{"exact":2},"disk-gb":{"exact":1},"memory-mb":{"exact":128}}},` +
		`"start":"2026-08-08T20:00:00Z","end":"2026-08-08T22:00:00Z"}`)
	gateAction = []byte(`{"id":"site-a-sla-0042","reason":"window slide"}`)
	gateOffer  = encodeOffer(nil, core.OpResult{Offer: benchOffer()})
	gateAck    = []byte(`{"ok":true,"detail":"job 7 pid 42"}`)
)

// TestJSONDecodeAllocGate holds the strict reader's allocations per
// message — what it stores (strings, the parameter map and its values)
// and, on the server, the row's conversion — at most ~10 % over what was
// measured when the reader replaced encoding/json: 13 / 2 / 4 / 1,
// where json.Unmarshal made 26 / 7 / 11 / 6. The request reads 12 since
// the decoded spec's parameters are one slice, not a map.
func TestJSONDecodeAllocGate(t *testing.T) {
	for _, g := range []struct {
		name   string
		budget float64
		decode func() error
	}{
		{"request", 13, func() error {
			var in RequestJSON
			if err := readJSON(gateRequest, &in); err != nil {
				return err
			}
			_, err := decodeRequest(in)
			return err
		}},
		{"action", 2, func() error {
			var in ActionJSON
			if err := readJSON(gateAction, &in); err != nil {
				return err
			}
			_, err := actionArgs(in)
			return err
		}},
		{"offer", 4, func() error { var out OfferJSON; return readJSON(gateOffer, &out) }},
		{"ack", 1, func() error { var out AckJSON; return readJSON(gateAck, &out) }},
	} {
		if err := g.decode(); err != nil {
			t.Fatalf("%s: %v", g.name, err)
		}
		if avg := testing.AllocsPerRun(200, func() { _ = g.decode() }); avg > g.budget {
			t.Errorf("%s decode allocates %.1f allocs/op, budget is %g", g.name, avg, g.budget)
		}
	}
}

// raceEnabled reports whether the test binary was built with -race.
func raceEnabled() bool {
	info, _ := debug.ReadBuildInfo()
	return info != nil && slices.ContainsFunc(info.Settings, func(s debug.BuildSetting) bool {
		return s.Key == "-race" && s.Value == "true"
	})
}

// TestRequestEncodeAllocGate is the client side of TestOfferEncodeAllocGate:
// a request body appended into a pooled buffer allocates nothing (the
// exact-size copy the client sends is one more).
func TestRequestEncodeAllocGate(t *testing.T) {
	if raceEnabled() {
		t.Skip("under -race sync.Pool drops buffers at random")
	}
	var in RequestJSON
	if err := readJSON(gateRequest, &in); err != nil {
		t.Fatal(err)
	}
	args, err := decodeRequest(in)
	if err != nil {
		t.Fatal(err)
	}
	encode := func() {
		e := newRequestBody()
		e.request(args.Request)
		putBuf(e.p)
	}
	encode()
	if avg := testing.AllocsPerRun(200, encode); avg > 0 {
		t.Errorf("request encode allocates %.1f allocs/op, budget is 0", avg)
	}
}

// TestDecodeOutlivesTheBuffer: everything the reader stores is a copy, so
// refilling the pooled receive buffer with other bytes leaves an earlier
// result as it was — escaped strings, a parameter name no dimension has,
// and a list included.
func TestDecodeOutlivesTheBuffer(t *testing.T) {
	body := `{"service":"sim\"ulationé","client":"c","class":"guaranteed",` +
		`"spec":{"params":{"cpu":{"values":[1,2]},"gpu":{"exact":3}},"source_ip":"10.0.0.1"},` +
		`"start":"2026-08-08T20:00:00+02:00","end":"2026-08-08T22:00:00Z"}`
	buf := getBuf()
	*buf = append((*buf)[:0], body...)
	var got, want RequestJSON
	if err := readJSON(*buf, &got); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal([]byte(body), &want); err != nil {
		t.Fatal(err)
	}
	for i := range *buf {
		(*buf)[i] = 'x'
	}
	*buf = append((*buf)[:0], gateRequest...)
	putBuf(buf)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("after the buffer was refilled:\n got  %+v\n want %+v", got, want)
	}
}

// fill sets every field v points to a value of its own, so a struct that
// round-trips through json.Marshal and the reader has every member named
// right.
func fill(v reflect.Value, seed *int) {
	*seed++
	switch v.Kind() {
	case reflect.String:
		v.SetString(fmt.Sprintf("s%d", *seed))
	case reflect.Float64:
		v.SetFloat(float64(*seed) + 0.5)
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Pointer:
		v.Set(reflect.New(v.Type().Elem()))
		fill(v.Elem(), seed)
	case reflect.Slice:
		v.Set(reflect.ValueOf([]float64{float64(*seed), float64(*seed) + 1}))
	case reflect.Map:
		p := reflect.New(v.Type().Elem()).Elem()
		fill(p, seed)
		v.Set(reflect.MakeMap(v.Type()))
		v.SetMapIndex(reflect.ValueOf("cpu"), p)
	case reflect.Struct:
		if t, ok := v.Addr().Interface().(*time.Time); ok {
			*t = time.Date(2026, 8, 8, *seed, 0, 0, 0, time.UTC)
			return
		}
		for i := 0; i < v.NumField(); i++ {
			fill(v.Field(i), seed)
		}
	}
}

// TestReaderFollowsTheTags: the reader names every field of every wire
// struct it reads as the struct's json tag does.
func TestReaderFollowsTheTags(t *testing.T) {
	for _, fresh := range wireStructs {
		want, got := fresh(), fresh()
		seed := 0
		fill(reflect.ValueOf(want).Elem(), &seed)
		data, err := json.Marshal(want)
		if err != nil {
			t.Fatal(err)
		}
		if err := readJSON(data, got); err != nil || !reflect.DeepEqual(got, want) {
			t.Errorf("%T from %s: %+v, %v", got, data, got, err)
		}
	}
}
