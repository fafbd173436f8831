package httpapi

// Wire types and the hand-written codec. Every body on the session path
// is appended by hand into a pooled buffer, in encoding/json's rendering
// with HTML escaping off (one escaper and one number format for both
// directions), and read back by the strict reader in read.go; no
// reflection runs per message. encoding/json is left with the cold load
// report and the client's reading of an error envelope.

import (
	"encoding/json"
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"
	"unicode/utf8"

	"gqosm/internal/core"
	"gqosm/internal/resource"
	"gqosm/internal/sla"
)

// ParamJSON is one QoS parameter. Exactly one form is set: values ⇒
// list, min/max ⇒ range, exact ⇒ exact (the same three forms as §5.3);
// a parameter that sets two is refused with bad_request.
type ParamJSON struct {
	Exact  *float64  `json:"exact,omitempty"`
	Min    *float64  `json:"min,omitempty"`
	Max    *float64  `json:"max,omitempty"`
	Values []float64 `json:"values,omitempty"`
}

// SpecJSON is the QoS specification: parameters keyed by resource
// dimension name ("cpu", "memory-mb", "disk-gb", "bandwidth-mbps").
type SpecJSON struct {
	Params     map[string]ParamJSON `json:"params"`
	SourceIP   string               `json:"source_ip,omitempty"`
	DestIP     string               `json:"dest_ip,omitempty"`
	MaxLossPct float64              `json:"max_loss_pct,omitempty"`
}

// RequestJSON is the service-request body (POST /api/v1/request).
type RequestJSON struct {
	Service           string    `json:"service"`
	Client            string    `json:"client"`
	Class             string    `json:"class"`
	Spec              SpecJSON  `json:"spec"`
	Start             time.Time `json:"start"`
	End               time.Time `json:"end"`
	Budget            float64   `json:"budget,omitempty"`
	AcceptDegradation bool      `json:"accept_degradation,omitempty"`
	AcceptTermination bool      `json:"accept_termination,omitempty"`
	PromotionOptIn    bool      `json:"promotion_opt_in,omitempty"`
}

// ActionJSON is the body of the lifecycle posts (accept / reject /
// invoke / terminate) and carries the renegotiation spec when present.
type ActionJSON struct {
	ID     string    `json:"id"`
	Reason string    `json:"reason,omitempty"`
	Spec   *SpecJSON `json:"spec,omitempty"`
}

// BestEffortJSON is the best-effort grant/release body.
type BestEffortJSON struct {
	Client   string  `json:"client"`
	CPU      float64 `json:"cpu,omitempty"`
	MemoryMB float64 `json:"memory_mb,omitempty"`
	DiskGB   float64 `json:"disk_gb,omitempty"`
	Release  bool    `json:"release,omitempty"`
}

// CapacityJSON mirrors resource.Capacity on the wire.
type CapacityJSON struct {
	CPU           float64 `json:"cpu"`
	MemoryMB      float64 `json:"memory_mb"`
	DiskGB        float64 `json:"disk_gb"`
	BandwidthMbps float64 `json:"bandwidth_mbps"`
}

// OfferJSON is the admission response and the session snapshot (GET
// /api/v1/session): the negotiated essentials, not the full SLA
// document — the SOAP path remains the reference for whole-document
// exchange.
type OfferJSON struct {
	SLAID       string       `json:"sla_id"`
	State       string       `json:"state"`
	Class       string       `json:"class"`
	Price       float64      `json:"price"`
	Allocated   CapacityJSON `json:"allocated"`
	Expires     time.Time    `json:"expires,omitempty"`
	Compensated bool         `json:"compensated,omitempty"`
	ServiceKey  string       `json:"service_key,omitempty"`
	// Domain names the domain whose broker holds the session, set when
	// the request went through a federation.
	Domain string `json:"domain,omitempty"`
}

// AckJSON acknowledges lifecycle posts.
type AckJSON struct {
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

// ErrorJSON is the error envelope every non-2xx response carries.
type ErrorJSON struct {
	Error struct {
		Code    string `json:"code"`
		Message string `json:"message"`
	} `json:"error"`
}

// kindNamed maps a wire dimension name back to its resource kind.
func kindNamed(name string) (resource.Kind, bool) {
	for _, k := range resource.Kinds {
		if k.String() == name {
			return k, true
		}
	}
	return 0, false
}

// decodeSpec converts a wire spec to the broker type. A parameter sets
// exactly one value form: exact, values, or min/max. Of several bad
// parameters the first in name order is reported, so one body always
// gets one answer.
func decodeSpec(in SpecJSON) (sla.Spec, error) {
	var (
		buf          [len(resource.Kinds)]sla.Param
		ps           = buf[:0]
		bad, problem string
	)
	for name, p := range in.Params {
		kind, ok := kindNamed(name)
		why := ""
		switch values, bounds, exact := len(p.Values) > 0, p.Min != nil || p.Max != nil, p.Exact != nil; {
		case !ok:
			why = "is not a resource dimension"
		case values && (bounds || exact), bounds && exact:
			why = "sets more than one of exact, min/max and values"
		case values:
			ps = append(ps, sla.List(kind, p.Values...))
		case bounds:
			var lo, hi float64
			if p.Min != nil {
				lo = *p.Min
			}
			if p.Max != nil {
				hi = *p.Max
			}
			ps = append(ps, sla.Range(kind, lo, hi))
		case exact:
			ps = append(ps, sla.Exact(kind, *p.Exact))
		default:
			why = "needs exact, min/max or values"
		}
		if why != "" && (problem == "" || name < bad) {
			bad, problem = name, why
		}
	}
	if problem != "" {
		return sla.Spec{}, fmt.Errorf("%w: parameter %q %s", core.ErrInvalidRequest, bad, problem)
	}
	spec := sla.NewSpec(ps...)
	spec.SourceIP, spec.DestIP, spec.MaxPacketLossPct = in.SourceIP, in.DestIP, in.MaxLossPct
	return spec, nil
}

// decodeRequest converts the wire request to the admission's arguments.
func decodeRequest(in RequestJSON) (core.OpArgs, error) {
	class, err := sla.ParseClass(in.Class)
	if err != nil {
		return core.OpArgs{}, fmt.Errorf("%w: %v", core.ErrInvalidRequest, err)
	}
	spec, err := decodeSpec(in.Spec)
	if err != nil {
		return core.OpArgs{}, err
	}
	return core.OpArgs{Request: core.Request{
		Service:           in.Service,
		Client:            in.Client,
		Class:             class,
		Spec:              spec,
		Start:             in.Start,
		End:               in.End,
		Budget:            in.Budget,
		AcceptDegradation: in.AcceptDegradation,
		AcceptTermination: in.AcceptTermination,
		PromotionOptIn:    in.PromotionOptIn,
	}}, nil
}

// ---- pooled hand-rolled encoder ------------------------------------

// bufPool recycles response scratch buffers. Buffers that grew past
// maxPooledBuf are dropped rather than pinned by one oversized payload
// (same discipline as soapx).
var bufPool = sync.Pool{New: func() any {
	b := make([]byte, 0, 512)
	return &b
}}

const maxPooledBuf = 64 << 10

func getBuf() *[]byte {
	p := bufPool.Get().(*[]byte)
	*p = (*p)[:0]
	return p
}

func putBuf(p *[]byte) {
	if cap(*p) <= maxPooledBuf {
		bufPool.Put(p)
	}
}

const hexdigits = "0123456789abcdef"

// appendString appends s as a JSON string the way encoding/json writes
// one with HTML escaping off: quotes, backslashes and control bytes
// escaped (\b \f \n \r \t short), U+2028 and U+2029 escaped, a byte
// that is not UTF-8 written as \ufffd, everything else passed through.
func appendString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	for i, r := range s {
		switch {
		case r == '"' || r == '\\':
			dst = append(dst, '\\', byte(r))
		case r < ' ' && shortEscape[r] != 0:
			dst = append(dst, '\\', shortEscape[r])
		case r < ' ':
			dst = append(dst, '\\', 'u', '0', '0', hexdigits[r>>4], hexdigits[r&0xf])
		case r == '\u2028' || r == '\u2029':
			dst = append(dst, '\\', 'u', '2', '0', '2', hexdigits[r&0xf])
		case r == utf8.RuneError && !strings.HasPrefix(s[i:], "\uFFFD"): // not UTF-8
			dst = append(dst, `\ufffd`...)
		default:
			dst = utf8.AppendRune(dst, r)
		}
	}
	return append(dst, '"')
}

var shortEscape = [' ']byte{'\b': 'b', '\f': 'f', '\n': 'n', '\r': 'r', '\t': 't'}

// appendFloat appends v as encoding/json writes a float64: the shortest
// decimal, in exponent form only below 1e-6 or from 1e21 on.
func appendFloat(dst []byte, v float64) []byte {
	format := byte('f')
	if abs := math.Abs(v); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, v, format, -1, 64)
	if n := len(dst); format == 'e' && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
		dst[n-2] = dst[n-1] // e-07 → e-7
		dst = dst[:n-1]
	}
	return dst
}

func appendCapacity(dst []byte, c resource.Capacity) []byte {
	dst = appendFloat(append(dst, `{"cpu":`...), c.CPU)
	dst = appendFloat(append(dst, `,"memory_mb":`...), c.MemoryMB)
	dst = appendFloat(append(dst, `,"disk_gb":`...), c.DiskGB)
	dst = appendFloat(append(dst, `,"bandwidth_mbps":`...), c.BandwidthMbps)
	return append(dst, '}')
}

func appendTime(dst []byte, t time.Time) []byte {
	return append(t.AppendFormat(append(dst, '"'), time.RFC3339Nano), '"')
}

// encodeOffer renders the admission response — the JSON transport's
// hot-path encode — with the serving domain of a federated request.
func encodeOffer(dst []byte, res core.OpResult) []byte {
	o := res.Offer
	dst = appendEssentials(dst, o.SLA, o.Price)
	dst = appendTime(append(dst, `,"expires":`...), o.Expires)
	if o.Compensated {
		dst = append(dst, `,"compensated":true`...)
	}
	if o.ServiceKey != "" {
		dst = appendString(append(dst, `,"service_key":`...), string(o.ServiceKey))
	}
	if res.Domain != "" {
		dst = appendString(append(dst, `,"domain":`...), res.Domain)
	}
	return append(dst, '}')
}

// encodeSession renders a session snapshot from its SLA document.
func encodeSession(dst []byte, res core.OpResult) []byte {
	return append(appendEssentials(dst, res.Session, res.Session.Price), '}')
}

// appendEssentials opens the object an offer and a session snapshot
// share: the negotiated essentials of an SLA document.
func appendEssentials(dst []byte, doc *sla.Document, price float64) []byte {
	dst = appendString(append(dst, `{"sla_id":`...), string(doc.ID))
	dst = appendString(append(dst, `,"state":`...), doc.State.String())
	dst = appendString(append(dst, `,"class":`...), doc.Class.String())
	dst = appendFloat(append(dst, `,"price":`...), price)
	return appendCapacity(append(dst, `,"allocated":`...), doc.Allocated)
}

// encodeAck renders the lifecycle acknowledgement.
func encodeAck(dst []byte, res core.OpResult) []byte {
	dst = append(dst, `{"ok":true`...)
	if res.Detail != "" {
		dst = appendString(append(dst, `,"detail":`...), res.Detail)
	}
	return append(dst, '}')
}

// appendError renders the error envelope.
func appendError(dst []byte, code, message string) []byte {
	dst = appendString(append(dst, `{"error":{"code":`...), code)
	dst = appendString(append(dst, `,"message":`...), message)
	return append(dst, `}}`...)
}

// encodeLoad renders the cold load report with encoding/json (a plain
// struct of numbers and strings: it cannot fail).
func encodeLoad(dst []byte, res core.OpResult) []byte {
	b, _ := json.Marshal(res.Load)
	return append(dst, b...)
}

// ---- request bodies (client side) ----------------------------------

// requestBody is a request body appended into a pooled buffer, byte for
// byte json.Marshal's rendering of the row's wire struct with HTML
// escaping off, and the first value json.Marshal refuses: a NaN or
// infinite number, or a time RFC 3339 cannot carry.
type requestBody struct {
	p   *[]byte
	err error
}

func newRequestBody() requestBody { return requestBody{p: getBuf()} }

// str, num and time append a member name (or a list separator) and a
// value; omitEmpty leaves out a zero value, as omitempty does.
func (e *requestBody) str(sep, s string, omitEmpty bool) {
	if s != "" || !omitEmpty {
		*e.p = appendString(append(*e.p, sep...), s)
	}
}

func (e *requestBody) num(sep string, v float64, omitEmpty bool) {
	if (math.IsNaN(v) || math.IsInf(v, 0)) && e.err == nil {
		e.err = fmt.Errorf("%g is not a JSON number", v)
	}
	if v != 0 || !omitEmpty {
		*e.p = appendFloat(append(*e.p, sep...), v)
	}
}

func (e *requestBody) time(sep string, t time.Time) {
	if _, offset := t.Zone(); (t.Year() < 0 || t.Year() > 9999 || offset <= -86400 || offset >= 86400) && e.err == nil {
		e.err = fmt.Errorf("time %v has no RFC 3339 form", t)
	}
	*e.p = appendTime(append(*e.p, sep...), t)
}

// raw appends member when on: a true flag omitempty keeps, or a closing.
func (e *requestBody) raw(member string, on bool) {
	if on {
		*e.p = append(*e.p, member...)
	}
}

func (e *requestBody) request(r core.Request) {
	e.str(`{"service":`, r.Service, false)
	e.str(`,"client":`, r.Client, false)
	e.str(`,"class":`, r.Class.String(), false)
	e.spec(`,"spec":`, r.Spec)
	e.time(`,"start":`, r.Start)
	e.time(`,"end":`, r.End)
	e.num(`,"budget":`, r.Budget, true)
	e.raw(`,"accept_degradation":true`, r.AcceptDegradation)
	e.raw(`,"accept_termination":true`, r.AcceptTermination)
	e.raw(`,"promotion_opt_in":true`, r.PromotionOptIn)
	e.raw("}", true)
}

func (e *requestBody) action(id, reason string, spec *sla.Spec) {
	e.str(`{"id":`, id, false)
	e.str(`,"reason":`, reason, true)
	if spec != nil {
		e.spec(`,"spec":`, *spec)
	}
	e.raw("}", true)
}

func (e *requestBody) bestEffort(client string, amount resource.Capacity, release bool) {
	e.str(`{"client":`, client, false)
	e.num(`,"cpu":`, amount.CPU, true)
	e.num(`,"memory_mb":`, amount.MemoryMB, true)
	e.num(`,"disk_gb":`, amount.DiskGB, true)
	e.raw(`,"release":true`, release)
	e.raw("}", true)
}

// spec appends a spec with its parameters in name order, as json.Marshal
// orders map keys.
func (e *requestBody) spec(sep string, s sla.Spec) {
	var arr [len(resource.Kinds)]sla.Param
	params := append(arr[:0], s.Params...)
	slices.SortFunc(params, func(a, b sla.Param) int { return strings.Compare(a.Kind.String(), b.Kind.String()) })
	e.raw(sep, true)
	sep = `{"params":{`
	for _, p := range params {
		e.str(sep, p.Kind.String(), false)
		sep = ","
		switch {
		case p.Form == sla.FormExact:
			e.num(`:{"exact":`, p.Exact, false)
		case p.Form == sla.FormRange:
			e.num(`:{"min":`, p.Min, false)
			e.num(`,"max":`, p.Max, false)
		case p.Form == sla.FormList && len(p.Values) > 0:
			list := `:{"values":[`
			for _, v := range p.Values {
				e.num(list, v, false)
				list = ","
			}
			e.raw("]", true)
		default:
			e.raw(":{", true)
		}
		e.raw("}", true)
	}
	e.raw(sep, len(params) == 0)
	e.raw("}", true)
	e.str(`,"source_ip":`, s.SourceIP, true)
	e.str(`,"dest_ip":`, s.DestIP, true)
	e.num(`,"max_loss_pct":`, s.MaxPacketLossPct, true)
	e.raw("}", true)
}
