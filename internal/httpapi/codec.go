package httpapi

// Wire types and the pooled response encoder. Requests are decoded with
// encoding/json (they arrive cold off the network; clarity wins), but
// responses on the admission hot path are appended by hand into pooled
// buffers — no reflection, no intermediate allocations — which is what
// keeps the JSON transport's steady-state encode under the allocs/op
// gate (see BenchmarkHTTPOfferEncode).

import (
	"encoding/json"
	"fmt"
	"strconv"
	"sync"
	"time"

	"gqosm/internal/core"
	"gqosm/internal/resource"
	"gqosm/internal/sla"
)

// ParamJSON is one QoS parameter. Exactly one form is used: values ⇒
// list, min/max ⇒ range, exact ⇒ exact (the same three forms as §5.3).
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
	ShardHint         int       `json:"shard_hint,omitempty"`
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

// Capacity converts back to the broker type.
func (c CapacityJSON) Capacity() resource.Capacity {
	return resource.Capacity{CPU: c.CPU, MemoryMB: c.MemoryMB, DiskGB: c.DiskGB, BandwidthMbps: c.BandwidthMbps}
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

// kindByName maps wire dimension names back to resource kinds.
var kindByName = func() map[string]resource.Kind {
	m := make(map[string]resource.Kind, len(resource.Kinds))
	for _, k := range resource.Kinds {
		m[k.String()] = k
	}
	return m
}()

// decodeSpec converts a wire spec to the broker type.
func decodeSpec(in SpecJSON) (sla.Spec, error) {
	params := make([]sla.Param, 0, len(in.Params))
	for name, p := range in.Params {
		kind, ok := kindByName[name]
		if !ok {
			return sla.Spec{}, fmt.Errorf("%w: unknown resource dimension %q", errBadRequest, name)
		}
		switch {
		case len(p.Values) > 0:
			params = append(params, sla.List(kind, p.Values...))
		case p.Min != nil || p.Max != nil:
			var lo, hi float64
			if p.Min != nil {
				lo = *p.Min
			}
			if p.Max != nil {
				hi = *p.Max
			}
			params = append(params, sla.Range(kind, lo, hi))
		case p.Exact != nil:
			params = append(params, sla.Exact(kind, *p.Exact))
		default:
			return sla.Spec{}, fmt.Errorf("%w: parameter %q needs exact, min/max or values", errBadRequest, name)
		}
	}
	spec := sla.NewSpec(params...)
	spec.SourceIP = in.SourceIP
	spec.DestIP = in.DestIP
	spec.MaxPacketLossPct = in.MaxLossPct
	return spec, nil
}

// encodeSpec converts a broker spec to the wire form (client side).
func encodeSpec(s sla.Spec) SpecJSON {
	out := SpecJSON{
		Params:     make(map[string]ParamJSON, len(s.Params)),
		SourceIP:   s.SourceIP,
		DestIP:     s.DestIP,
		MaxLossPct: s.MaxPacketLossPct,
	}
	for kind, p := range s.Params {
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
		out.Params[kind.String()] = pj
	}
	return out
}

// decodeRequest converts the wire request to the broker type.
func decodeRequest(in RequestJSON) (core.Request, error) {
	class, err := sla.ParseClass(in.Class)
	if err != nil {
		return core.Request{}, fmt.Errorf("%w: %v", errBadRequest, err)
	}
	spec, err := decodeSpec(in.Spec)
	if err != nil {
		return core.Request{}, err
	}
	return core.Request{
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
		ShardHint:         in.ShardHint,
	}, nil
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

// appendString appends s as a JSON string: quotes and backslashes
// escaped, control bytes as \u00XX, everything else (including raw
// UTF-8) passed through — valid JSON without encoding/json's
// reflection.
func appendString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c == '"':
			dst = append(dst, '\\', '"')
		case c == '\\':
			dst = append(dst, '\\', '\\')
		case c < 0x20:
			dst = append(dst, '\\', 'u', '0', '0', hexdigits[c>>4], hexdigits[c&0xf])
		default:
			dst = append(dst, c)
		}
	}
	return append(dst, '"')
}

func appendFloat(dst []byte, v float64) []byte {
	return strconv.AppendFloat(dst, v, 'g', -1, 64)
}

func appendCapacity(dst []byte, c resource.Capacity) []byte {
	dst = append(dst, `{"cpu":`...)
	dst = appendFloat(dst, c.CPU)
	dst = append(dst, `,"memory_mb":`...)
	dst = appendFloat(dst, c.MemoryMB)
	dst = append(dst, `,"disk_gb":`...)
	dst = appendFloat(dst, c.DiskGB)
	dst = append(dst, `,"bandwidth_mbps":`...)
	dst = appendFloat(dst, c.BandwidthMbps)
	return append(dst, '}')
}

func appendTime(dst []byte, t time.Time) []byte {
	dst = append(dst, '"')
	dst = t.AppendFormat(dst, time.RFC3339Nano)
	return append(dst, '"')
}

// appendOffer renders the admission response of an unfederated broker.
func appendOffer(dst []byte, o *core.Offer) []byte {
	return encodeOffer(dst, core.OpResult{Offer: o})
}

// encodeOffer renders the admission response — the JSON transport's
// hot-path encode — with the serving domain of a federated request.
func encodeOffer(dst []byte, res core.OpResult) []byte {
	o := res.Offer
	dst = appendEssentials(dst, o.SLA, o.Price)
	dst = append(dst, `,"expires":`...)
	dst = appendTime(dst, o.Expires)
	if o.Compensated {
		dst = append(dst, `,"compensated":true`...)
	}
	if o.ServiceKey != "" {
		dst = append(dst, `,"service_key":`...)
		dst = appendString(dst, string(o.ServiceKey))
	}
	if res.Domain != "" {
		dst = append(dst, `,"domain":`...)
		dst = appendString(dst, res.Domain)
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
	dst = append(dst, `{"sla_id":`...)
	dst = appendString(dst, string(doc.ID))
	dst = append(dst, `,"state":`...)
	dst = appendString(dst, doc.State.String())
	dst = append(dst, `,"class":`...)
	dst = appendString(dst, doc.Class.String())
	dst = append(dst, `,"price":`...)
	dst = appendFloat(dst, price)
	dst = append(dst, `,"allocated":`...)
	return appendCapacity(dst, doc.Allocated)
}

// encodeAck renders the lifecycle acknowledgement.
func encodeAck(dst []byte, res core.OpResult) []byte {
	dst = append(dst, `{"ok":true`...)
	if res.Detail != "" {
		dst = append(dst, `,"detail":`...)
		dst = appendString(dst, res.Detail)
	}
	return append(dst, '}')
}

// appendError renders the error envelope.
func appendError(dst []byte, code, message string) []byte {
	dst = append(dst, `{"error":{"code":`...)
	dst = appendString(dst, code)
	dst = append(dst, `,"message":`...)
	dst = appendString(dst, message)
	return append(dst, `}}`...)
}

// The management reads are cold: encoding/json renders them.
func encodeLoad(dst []byte, res core.OpResult) []byte     { return appendJSON(dst, res.Load) }
func encodePolicies(dst []byte, res core.OpResult) []byte { return appendJSON(dst, res.Policies) }

func appendJSON(dst []byte, v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		// All marshaled types are plain structs; this cannot fail.
		return appendError(dst, "internal", "encode")
	}
	return append(dst, b...)
}
