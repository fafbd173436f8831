package httpapi

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"gqosm/internal/core"
	"gqosm/internal/resource"
	"gqosm/internal/sla"
)

// encoding/json is the oracle of the hand-written codec. FuzzJSONDecode
// holds the strict reader and every POST row's decode to json.Unmarshal
// into the same wire struct followed by the same conversion;
// FuzzJSONEncode holds the client's hand-appended request bodies to what
// json.Marshal makes of the wire structs the client used to fill. No
// divergence is allowed in either direction.

// oracles is every POST row's decode as it was: json.Unmarshal into the
// row's wire struct, then the row's conversion.
var oracles = map[string]func([]byte) (core.OpArgs, error){
	"request":          oracle(decodeRequest),
	"accept":           oracle(actionArgs),
	"reject":           oracle(actionArgs),
	"invoke":           oracle(actionArgs),
	"terminate":        oracle(actionArgs),
	"accept_promotion": oracle(actionArgs),
	"renegotiate":      oracle(renegotiateArgs),
	"best-effort":      oracle(bestEffortArgs),
}

func oracle[T any](convert func(T) (core.OpArgs, error)) func([]byte) (core.OpArgs, error) {
	return func(body []byte) (core.OpArgs, error) {
		var in T
		if err := json.Unmarshal(body, &in); err != nil {
			return core.OpArgs{}, err
		}
		return convert(in)
	}
}

func TestOraclesCoverThePostRows(t *testing.T) {
	for op, rt := range routes {
		if _, ok := oracles[op]; ok != (rt.method == http.MethodPost) {
			t.Errorf("row %q (%s): oracle present = %v", op, rt.method, ok)
		}
	}
}

// readClass is the class of a read error: the same class means the same
// kind of refusal (malformed JSON, or a value the struct cannot hold).
func readClass(err error) string {
	var syntax *json.SyntaxError
	switch {
	case err == nil:
		return "accepted"
	case errors.Is(err, errSyntax), errors.As(err, &syntax):
		return "syntax"
	default:
		return "value"
	}
}

// wireStructs makes a fresh value of every struct the reader fills.
var wireStructs = []func() any{
	func() any { return new(RequestJSON) },
	func() any { return new(ActionJSON) },
	func() any { return new(BestEffortJSON) },
	func() any { return new(OfferJSON) },
	func() any { return new(AckJSON) },
}

// checkDecode compares one body's reads and row decodes with the oracle.
func checkDecode(t *testing.T, data []byte) {
	t.Helper()
	for _, fresh := range wireStructs {
		got, want := fresh(), fresh()
		gotErr, wantErr := readJSON(data, got), json.Unmarshal(data, want)
		if g, w := readClass(gotErr), readClass(wantErr); g != w {
			t.Fatalf("%T from %q: reader %s (%v), encoding/json %s (%v)", got, data, g, gotErr, w, wantErr)
		}
		if gotErr == nil && !reflect.DeepEqual(got, want) {
			t.Fatalf("%T from %q:\nreader        %+v\nencoding/json %+v", got, data, got, want)
		}
	}
	for op, oracle := range oracles {
		got, gotErr := routes[op].decode(httptest.NewRequest(http.MethodPost, Prefix+op, bytes.NewReader(data)))
		want, wantErr := oracle(data)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("%s %q: decode error %v, oracle error %v", op, data, gotErr, wantErr)
		}
		if gotErr != nil && !errors.Is(gotErr, core.ErrInvalidRequest) {
			t.Fatalf("%s %q: refusal %v is not bad_request", op, data, gotErr)
		}
		if gotErr == nil && !reflect.DeepEqual(got, want) {
			t.Fatalf("%s %q:\ndecode %+v\noracle %+v", op, data, got, want)
		}
		// A decoded spec holds one parameter per kind, in kind order.
		for _, spec := range []sla.Spec{got.Request.Spec, got.Spec} {
			if err := spec.Validate(); errors.Is(err, sla.ErrKindRepeated) || errors.Is(err, sla.ErrKindOrder) {
				t.Fatalf("%s %q: decoded %v: %v", op, data, spec.Params, err)
			}
		}
		// A body read alike and refused by the conversion gets one answer.
		if errors.Is(wantErr, core.ErrInvalidRequest) && gotErr.Error() != wantErr.Error() {
			t.Fatalf("%s %q: decode %q, oracle %q", op, data, gotErr, wantErr)
		}
	}
}

// decodeSeeds are TestWireMalformedRequests' bodies, one valid body per
// row, an offer and an acknowledgement, and the edges of the rules.
func decodeSeeds() []string {
	request := func(params string) string {
		return `{"client":"c","service":"simulation","class":"guaranteed","spec":{"params":` + params +
			`},"start":"2026-08-08T20:00:00Z","end":"2026-08-08T22:00:00Z"}`
	}
	return []string{
		"{not json", `{}`,
		request(`{"cpu":{"exact":4,"min":1,"max":3}}`),
		request(`{"cpu":{"values":[2,4],"exact":4}}`),
		request(`{"cpu":{"min":2}}`),
		request(`{"cpu":{"exact":2},"memory-mb":{"min":256,"max":512},"disk-gb":{"values":[10,20]}}`),
		request(`{"memory-mb":{"exact":256},"cpu":{"exact":2},"cpu":{"min":1,"max":3}}`),
		`{"id":"site-a-sla-0001","reason":"window slide"}`,
		`{"id":"site-a-sla-0001","spec":{"params":{"cpu":{"exact":3}},"source_ip":"10.0.0.1","max_loss_pct":0.5}}`,
		`{"client":"student","cpu":4,"memory_mb":512,"release":true}`,
		`{"sla_id":"site-a-sla-0042","state":"proposed","class":"guaranteed","price":37.5,` +
			`"allocated":{"cpu":10,"memory_mb":2048,"disk_gb":15,"bandwidth_mbps":45},` +
			`"expires":"2003-06-16T09:02:00Z","service_key":"simulation@site-a","domain":"site-b"}`,
		`{"ok":true,"detail":"job 7 pid 42"}`,
		`null`, ` {"ID":"x","Reason":null} `, `{"ſpec":{"params":null},"\u0069d":"\ud83d\ude00\ud800"}`,
		`{"id":"x"} {}`, `{"budget":1e400}`, `{"budget":-0.0e-0}`, `{"start":"2026-08-08T20:00:00+02:00"}`,
		`{"start":17}`, `{"spec":{"params":{"cpu":{"values":[1,2,3]},"cpu":{"values":[]}}}}`,
		`{"id":"\u00e9\"\\\/\b\f\n\r\t\u2028"}`, "{\"id\":\"\xff\"}", `[[[[]]]]`, `{"id":01}`,
		`{"ıd":"dotless","Kind":1,"K":2,"ſervice":"long s"}`, `{"SERVICE":"a","service":"b","Service":null}`,
	}
}

func FuzzJSONDecode(f *testing.F) {
	for _, s := range decodeSeeds() {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) { checkDecode(t, data) })
}

func TestDecodeSeedsAgree(t *testing.T) {
	for _, s := range decodeSeeds() {
		checkDecode(t, []byte(s))
	}
	deep := strings.Repeat("[", maxDepth) + strings.Repeat("]", maxDepth)
	checkDecode(t, []byte(`{"x":`+deep[1:len(deep)-1]+`}`))
	checkDecode(t, []byte(`{"x":`+deep+`}`))
}

// The client's wire structs as it filled them for json.Marshal.

func oracleSpec(s sla.Spec) SpecJSON {
	out := SpecJSON{
		Params:     make(map[string]ParamJSON, len(s.Params)),
		SourceIP:   s.SourceIP,
		DestIP:     s.DestIP,
		MaxLossPct: s.MaxPacketLossPct,
	}
	for _, p := range s.Params {
		var pj ParamJSON
		switch p.Form {
		case sla.FormExact:
			v := p.Exact
			pj.Exact = &v
		case sla.FormRange:
			lo, hi := p.Min, p.Max
			pj.Min, pj.Max = &lo, &hi
		case sla.FormList:
			pj.Values = p.Values
		}
		out.Params[p.Kind.String()] = pj
	}
	return out
}

func oracleRequest(r core.Request) RequestJSON {
	return RequestJSON{
		Service:           r.Service,
		Client:            r.Client,
		Class:             r.Class.String(),
		Spec:              oracleSpec(r.Spec),
		Start:             r.Start,
		End:               r.End,
		Budget:            r.Budget,
		AcceptDegradation: r.AcceptDegradation,
		AcceptTermination: r.AcceptTermination,
		PromotionOptIn:    r.PromotionOptIn,
	}
}

// checkEncode compares a hand-appended body with the oracle's: refused
// alike, byte for byte the rendering of a json.Encoder with HTML
// escaping off, and read back by json.Unmarshal and by the strict
// reader as the struct json.Marshal carried.
func checkEncode(t *testing.T, e requestBody, wire any) {
	t.Helper()
	got, gotErr := append([]byte(nil), *e.p...), e.err
	putBuf(e.p)
	marshaled, wantErr := json.Marshal(wire)
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("%+v: body %s error %v, json.Marshal error %v", wire, got, gotErr, wantErr)
	}
	if wantErr != nil {
		return
	}
	var enc bytes.Buffer
	e2 := json.NewEncoder(&enc)
	e2.SetEscapeHTML(false)
	if err := e2.Encode(wire); err != nil {
		t.Fatal(err)
	}
	if want := bytes.TrimSuffix(enc.Bytes(), []byte("\n")); !bytes.Equal(got, want) {
		t.Fatalf("body\n%s\njson.Encoder without HTML escaping\n%s", got, want)
	}
	fresh := func() any { return reflect.New(reflect.TypeOf(wire).Elem()).Interface() }
	carried, sent, read := fresh(), fresh(), fresh()
	if err := json.Unmarshal(marshaled, carried); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(got, sent); err != nil || !reflect.DeepEqual(sent, carried) {
		t.Fatalf("json.Unmarshal(%s) = %+v, %v; json.Marshal carried %+v", got, sent, err, carried)
	}
	if err := readJSON(got, read); err != nil || !reflect.DeepEqual(read, carried) {
		t.Fatalf("readJSON(%s) = %+v, %v; json.Marshal carried %+v", got, read, err, carried)
	}
}

// fuzzSpec builds a spec from fuzz input: mask picks the dimensions (and
// one the codec has no name for), forms their value forms.
func fuzzSpec(mask, forms uint8, a, b float64, ip string) sla.Spec {
	s := sla.Spec{SourceIP: ip, DestIP: ip[len(ip)/2:], MaxPacketLossPct: b}
	for i, k := range append(resource.Kinds[:], resource.Kind(9)) {
		if mask&(1<<i) == 0 {
			continue
		}
		p := sla.Param{Kind: k, Form: sla.Form(forms >> (2 * i) & 3), Exact: a, Min: a, Max: b}
		if p.Form == sla.FormList {
			p.Values = []float64{a, b, a + b}[:forms>>7+mask>>7]
		}
		s.Params = append(s.Params, p)
	}
	return s
}

func FuzzJSONEncode(f *testing.F) {
	f.Add("simulation", "client-1", uint8(0), uint8(1), uint8(0), 2.0, 512.0, int64(1786219200), int32(0), 0.0, uint8(0), "")
	f.Add("sim<&>\u2028", "c\"\\\n\x01\xff", uint8(3), uint8(0x1f), uint8(0xe4), 1e21, 1e-7, int64(-62135596800), int32(3600), 12.5, uint8(7), "window slide")
	f.Add("s", "c", uint8(1), uint8(2), uint8(1), math.NaN(), 1.0, int64(253402300800), int32(-86400), math.Inf(1), uint8(1), "x")
	f.Fuzz(func(t *testing.T, service, client string, class, mask, forms uint8, a, b float64, sec int64, offset int32, budget float64, flags uint8, reason string) {
		r := core.Request{
			Service: service, Client: client, Class: sla.Class(class % 4), Spec: fuzzSpec(mask, forms, a, b, reason),
			Start: time.Unix(sec, int64(offset)).In(time.FixedZone("", int(offset))), End: time.Unix(sec/2, 0).UTC(),
			Budget: budget, AcceptDegradation: flags&1 != 0, AcceptTermination: flags&2 != 0, PromotionOptIn: flags&4 != 0,
		}
		// The spec the codec has no name for is one Go callers can build,
		// and Validate refuses it before it reaches a wire.
		if unknown := mask&(1<<len(resource.Kinds)) != 0; unknown != errors.Is(r.Spec.Validate(), sla.ErrKindUnknown) {
			t.Fatalf("spec %v: unknown kind %v, Validate() = %v", r.Spec.Params, unknown, r.Spec.Validate())
		}
		e := newRequestBody()
		e.request(r)
		wire := oracleRequest(r)
		checkEncode(t, e, &wire)

		e = newRequestBody()
		var spec *sla.Spec
		if flags&8 != 0 {
			spec = &r.Spec
		}
		e.action(client, reason, spec)
		action := ActionJSON{ID: client, Reason: reason}
		if spec != nil {
			sj := oracleSpec(*spec)
			action.Spec = &sj
		}
		checkEncode(t, e, &action)

		e = newRequestBody()
		amount := resource.Capacity{CPU: a, MemoryMB: b, DiskGB: budget}
		e.bestEffort(service, amount, flags&16 != 0)
		checkEncode(t, e, &BestEffortJSON{Client: service, CPU: a, MemoryMB: b, DiskGB: budget, Release: flags&16 != 0})
	})
}
