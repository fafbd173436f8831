// Package soapx is a minimal SOAP 1.1-over-HTTP transport, standing in for
// the Tomcat/Axis stack of the paper's testbed (§6, Fig. 5: "Clients send
// XML messages to the AQoS broker using SOAP over HTTP"). It provides
// envelope marshaling, a server mux that dispatches on the body element's
// local name, and a client.
package soapx

import (
	"bytes"
	"encoding/xml"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"

	"gqosm/internal/faultx"
)

// ErrTransport wraps transport-level failures (connection refused,
// reset, injected faults on the wire): the request may or may not have
// reached the server, so callers may retry idempotent operations.
// SOAP faults are NOT transport errors — they are definitive answers.
var ErrTransport = errors.New("soapx: transport error")

// Namespace constants.
const (
	// EnvelopeNS is the SOAP 1.1 envelope namespace.
	EnvelopeNS = "http://schemas.xmlsoap.org/soap/envelope/"
	// ContentType is the SOAP 1.1 HTTP content type.
	ContentType = "text/xml; charset=utf-8"
)

// Fault is a SOAP fault, used both as a wire document and a Go error.
type Fault struct {
	XMLName xml.Name `xml:"http://schemas.xmlsoap.org/soap/envelope/ Fault"`
	Code    string   `xml:"faultcode"`
	String  string   `xml:"faultstring"`
	Detail  string   `xml:"detail,omitempty"`
}

// Error implements error.
func (f *Fault) Error() string {
	return "soap fault " + f.Code + ": " + f.String
}

// encoder is an envelope scratch buffer with an xml.Encoder bound to it
// once: xml.NewEncoder allocates a 4 KiB bufio.Writer, so the pair is
// pooled, not the buffer alone.
type encoder struct {
	buf bytes.Buffer
	enc *xml.Encoder
}

// encoders recycles pairs across messages. A pair whose buffer grew past
// maxPooledBuf is dropped rather than pinned in the pool by one
// oversized payload, and so is a pair whose encode failed: its encoder
// may still hold part of an element in its bufio.Writer and tag stack.
var encoders = sync.Pool{New: func() any {
	e := new(encoder)
	e.enc = xml.NewEncoder(&e.buf)
	return e
}}

const maxPooledBuf = 64 << 10

// marshalEnvelope takes a pair from the pool and writes payload's SOAP
// envelope into its buffer, encoding the body element straight into it.
// On success the caller reads e.buf and then calls release; on error
// the pair is already dropped.
func marshalEnvelope(payload any) (*encoder, error) {
	e := encoders.Get().(*encoder)
	e.buf.Reset()
	e.buf.WriteString(xml.Header)
	e.buf.WriteString(`<soap:Envelope xmlns:soap="` + EnvelopeNS + `"><soap:Body>`)
	if err := e.enc.Encode(payload); err != nil {
		return nil, fmt.Errorf("soapx: marshal body: %w", err)
	}
	e.buf.WriteString(`</soap:Body></soap:Envelope>`)
	return e, nil
}

func (e *encoder) release() {
	if e.buf.Cap() <= maxPooledBuf {
		encoders.Put(e)
	}
}

// Marshal wraps the XML encoding of payload in a SOAP envelope. The
// returned slice is freshly allocated and owned by the caller; the
// server path writes from a pooled buffer instead (see ServeHTTP).
func Marshal(payload any) ([]byte, error) {
	e, err := marshalEnvelope(payload)
	if err != nil {
		return nil, err
	}
	out := append([]byte(nil), e.buf.Bytes()...)
	e.release()
	return out, nil
}

// maxBody is the largest message body either side reads.
const maxBody = 4 << 20

var errTooLarge = fmt.Errorf("body exceeds the %d-byte limit", maxBody)

// inbound is a received message body and the reader that reads it.
type inbound struct {
	data bytes.Buffer
	r    bodyReader
}

// received recycles inbound pairs: decode copies out every value it
// stores, so a pair is reused as soon as its envelope is read.
var received = sync.Pool{New: func() any { return new(inbound) }}

// readBody reads a message body of at most maxBody bytes into a pooled
// buffer, sized from its Content-Length n when that is known (n >= 0).
func readBody(src io.Reader, n int64) (*inbound, error) {
	if n > maxBody {
		return nil, errTooLarge
	}
	in := received.Get().(*inbound)
	in.data.Reset()
	if n > 0 {
		in.data.Grow(int(n) + bytes.MinRead)
	}
	_, err := in.data.ReadFrom(&io.LimitedReader{R: src, N: maxBody + 1})
	if err == nil && in.data.Len() > maxBody {
		err = errTooLarge
	}
	if err != nil {
		in.release()
		return nil, err
	}
	return in, nil
}

// release returns the pair to the pool unless one oversized message grew
// it past maxPooledBuf.
func (in *inbound) release() {
	if in.data.Cap() <= maxPooledBuf && cap(in.r.buf) <= maxPooledBuf {
		received.Put(in)
	}
}

// Unmarshal extracts the body payload of a SOAP envelope into v. If the
// body is a Fault it is returned as the error.
func Unmarshal(data []byte, v any) error {
	return new(bodyReader).unmarshal(data, v)
}

// HandlerFunc processes one request and returns the response payload
// (marshaled into the response envelope) or an error (returned as a
// soap:Server fault; an error that is a *Fault is sent as it stands, so
// a handler can put a machine-readable detail on the wire). decode reads
// the body element into the handler's request type and then the rest of
// the envelope; a handler acts only once it returned nil. A malformed
// envelope is answered with a soap:Client fault whatever the handler
// returns; the mux reads it to the end if the handler never decodes.
type HandlerFunc func(decode func(v any) error) (any, error)

// Mux dispatches SOAP requests on the body element's local name. Plain
// HTTP endpoints (metrics, profiling) can be mounted next to the SOAP
// service with HandleHTTP. It implements http.Handler. Safe for
// concurrent use.
type Mux struct {
	mu       sync.RWMutex
	handlers map[string]HandlerFunc
	http     map[string]http.Handler

	// Faults injects server-side failures ahead of SOAP dispatch (site
	// "soapx.server"); nil injects nothing. Set at assembly time,
	// before the mux serves requests.
	Faults *faultx.Injector
}

// NewMux returns an empty mux.
func NewMux() *Mux {
	return &Mux{handlers: make(map[string]HandlerFunc), http: make(map[string]http.Handler)}
}

// Handle registers a handler for the given body element name, replacing
// any previous handler.
func (m *Mux) Handle(element string, h HandlerFunc) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.handlers[element] = h
}

// HandleHTTP mounts a plain HTTP handler on the given URL path,
// replacing any previous handler for it. A path ending in "/" matches
// the whole subtree (like net/http's ServeMux), which is how pprof's
// /debug/pprof/ family is mounted. Matched requests bypass SOAP
// dispatch entirely: any method is allowed and the body is not parsed.
func (m *Mux) HandleHTTP(path string, h http.Handler) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.http[path] = h
}

// httpHandler returns the plain-HTTP handler for path: an exact match
// wins, then the longest registered subtree prefix.
func (m *Mux) httpHandler(path string) http.Handler {
	m.mu.RLock()
	defer m.mu.RUnlock()
	if h, ok := m.http[path]; ok {
		return h
	}
	var (
		best    http.Handler
		bestLen int
	)
	for p, h := range m.http {
		if len(p) > bestLen && p[len(p)-1] == '/' && strings.HasPrefix(path, p) {
			best, bestLen = h, len(p)
		}
	}
	return best
}

// ServeHTTP implements http.Handler.
func (m *Mux) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if h := m.httpHandler(r.URL.Path); h != nil {
		h.ServeHTTP(w, r)
		return
	}
	if r.Method != http.MethodPost {
		writeFault(w, http.StatusMethodNotAllowed, "Client", "SOAP requires POST", "")
		return
	}
	in, err := readBody(r.Body, r.ContentLength)
	switch {
	case errors.Is(err, errTooLarge):
		writeFault(w, http.StatusRequestEntityTooLarge, "Client", "request "+errTooLarge.Error(), "")
		return
	case err != nil:
		writeFault(w, http.StatusBadRequest, "Client", "read body", err.Error())
		return
	}
	defer in.release()
	body := &in.r
	if err := body.openEnvelope(in.data.Bytes()); err != nil {
		writeFault(w, http.StatusBadRequest, "Client", "bad envelope", err.Error())
		return
	}
	m.mu.RLock()
	h, ok := m.handlers[string(body.body)]
	inj := m.Faults
	m.mu.RUnlock()
	var resp any
	if ok {
		err = inj.Do("soapx.server", func() error {
			r, herr := h(body.decode)
			if herr == nil {
				resp = r
			}
			return herr
		})
	}
	if bad := body.finish(); bad != nil {
		writeFault(w, http.StatusBadRequest, "Client", "bad envelope", bad.Error())
		return
	}
	if !ok {
		writeFault(w, http.StatusBadRequest, "Client", "no handler for "+string(body.body), "")
		return
	}
	if err != nil {
		var f *Fault
		if !errors.As(err, &f) {
			f = &Fault{Code: "soap:Server", String: err.Error()}
		}
		writeFaultDoc(w, http.StatusInternalServerError, f)
		return
	}
	e, err := marshalEnvelope(resp)
	if err != nil {
		writeFault(w, http.StatusInternalServerError, "Server", "marshal response", err.Error())
		return
	}
	w.Header().Set("Content-Type", ContentType)
	_, _ = w.Write(e.buf.Bytes())
	e.release()
}

func writeFault(w http.ResponseWriter, status int, code, msg, detail string) {
	writeFaultDoc(w, status, &Fault{Code: "soap:" + code, String: msg, Detail: detail})
}

func writeFaultDoc(w http.ResponseWriter, status int, f *Fault) {
	e, err := marshalEnvelope(f)
	if err != nil {
		http.Error(w, f.String, status)
		return
	}
	w.Header().Set("Content-Type", ContentType)
	w.WriteHeader(status)
	_, _ = w.Write(e.buf.Bytes())
	e.release()
}

// Client calls SOAP endpoints.
type Client struct {
	// HTTPClient defaults to http.DefaultClient.
	HTTPClient *http.Client
	// Endpoint is the service URL.
	Endpoint string
}

// Call sends request (marshaled into an envelope) and decodes the response
// body into response. SOAP faults are returned as *Fault errors;
// transport-level failures wrap ErrTransport.
func (c *Client) Call(request, response any) error {
	data, err := Marshal(request)
	if err != nil {
		return err
	}
	hc := c.HTTPClient
	if hc == nil {
		hc = http.DefaultClient
	}
	resp, err := hc.Post(c.Endpoint, ContentType, bytes.NewReader(data))
	if err != nil {
		return fmt.Errorf("soapx: post %s: %w (%v)", c.Endpoint, ErrTransport, err)
	}
	defer resp.Body.Close()
	in, err := readBody(resp.Body, resp.ContentLength)
	switch {
	case errors.Is(err, errTooLarge):
		return fmt.Errorf("soapx: response %w", errTooLarge)
	case err != nil:
		return fmt.Errorf("soapx: read response: %w (%v)", ErrTransport, err)
	}
	defer in.release()
	return in.r.unmarshal(in.data.Bytes(), response)
}
