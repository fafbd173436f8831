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
	return fmt.Sprintf("soap fault %s: %s", f.Code, f.String)
}

type envelope struct {
	XMLName xml.Name `xml:"http://schemas.xmlsoap.org/soap/envelope/ Envelope"`
	Body    body     `xml:"http://schemas.xmlsoap.org/soap/envelope/ Body"`
}

type body struct {
	Inner []byte `xml:",innerxml"`
}

// bufPool recycles envelope scratch buffers across requests. Buffers
// that grew past maxPooledBuf are dropped rather than pinned in the
// pool by one oversized payload.
var bufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

const maxPooledBuf = 64 << 10

func getBuf() *bytes.Buffer {
	buf := bufPool.Get().(*bytes.Buffer)
	buf.Reset()
	return buf
}

func putBuf(buf *bytes.Buffer) {
	if buf.Cap() <= maxPooledBuf {
		bufPool.Put(buf)
	}
}

// marshalBuf writes payload's SOAP envelope into buf, encoding the body
// element straight into the buffer — no intermediate []byte. On error
// buf holds a partial document and must be discarded or reset.
func marshalBuf(buf *bytes.Buffer, payload any) error {
	buf.WriteString(xml.Header)
	buf.WriteString(`<soap:Envelope xmlns:soap="` + EnvelopeNS + `"><soap:Body>`)
	if err := xml.NewEncoder(buf).Encode(payload); err != nil {
		return fmt.Errorf("soapx: marshal body: %w", err)
	}
	buf.WriteString(`</soap:Body></soap:Envelope>`)
	return nil
}

// Marshal wraps the XML encoding of payload in a SOAP envelope. The
// returned slice is freshly allocated and owned by the caller; the
// server path writes from a pooled buffer instead (see ServeHTTP).
func Marshal(payload any) ([]byte, error) {
	buf := getBuf()
	if err := marshalBuf(buf, payload); err != nil {
		putBuf(buf)
		return nil, err
	}
	out := append([]byte(nil), buf.Bytes()...)
	putBuf(buf)
	return out, nil
}

// bodyElement returns the local name of the first element inside the Body
// and the raw body bytes.
func bodyElement(data []byte) (string, []byte, error) {
	var env envelope
	if err := xml.Unmarshal(data, &env); err != nil {
		return "", nil, fmt.Errorf("soapx: bad envelope: %w", err)
	}
	dec := xml.NewDecoder(bytes.NewReader(env.Body.Inner))
	for {
		tok, err := dec.Token()
		if err != nil {
			if errors.Is(err, io.EOF) {
				return "", nil, errors.New("soapx: empty body")
			}
			return "", nil, fmt.Errorf("soapx: bad body: %w", err)
		}
		if start, ok := tok.(xml.StartElement); ok {
			return start.Name.Local, env.Body.Inner, nil
		}
	}
}

// Unmarshal extracts the body payload of a SOAP envelope into v. If the
// body is a Fault it is returned as the error.
func Unmarshal(data []byte, v any) error {
	name, inner, err := bodyElement(data)
	if err != nil {
		return err
	}
	if name == "Fault" {
		var f Fault
		if err := xml.Unmarshal(inner, &f); err != nil {
			return fmt.Errorf("soapx: bad fault: %w", err)
		}
		return &f
	}
	if err := xml.Unmarshal(inner, v); err != nil {
		return fmt.Errorf("soapx: unmarshal body: %w", err)
	}
	return nil
}

// HandlerFunc processes one decoded request body and returns the response
// payload (marshaled into the response envelope) or an error (returned as
// a soap:Server fault; an error that is a *Fault is sent as it stands, so
// a handler can put a machine-readable detail on the wire). The raw body
// bytes are provided; implementations unmarshal into their request type.
type HandlerFunc func(body []byte) (any, error)

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
	data, err := io.ReadAll(io.LimitReader(r.Body, 4<<20))
	if err != nil {
		writeFault(w, http.StatusBadRequest, "Client", "read body", err.Error())
		return
	}
	name, inner, err := bodyElement(data)
	if err != nil {
		writeFault(w, http.StatusBadRequest, "Client", "bad envelope", err.Error())
		return
	}
	m.mu.RLock()
	h, ok := m.handlers[name]
	inj := m.Faults
	m.mu.RUnlock()
	if !ok {
		writeFault(w, http.StatusBadRequest, "Client", "no handler for "+name, "")
		return
	}
	var resp any
	err = inj.Do("soapx.server", func() error {
		r, herr := h(inner)
		if herr == nil {
			resp = r
		}
		return herr
	})
	if err != nil {
		var f *Fault
		if !errors.As(err, &f) {
			f = &Fault{Code: "soap:Server", String: err.Error()}
		}
		writeFaultDoc(w, http.StatusInternalServerError, f)
		return
	}
	buf := getBuf()
	if err := marshalBuf(buf, resp); err != nil {
		putBuf(buf)
		writeFault(w, http.StatusInternalServerError, "Server", "marshal response", err.Error())
		return
	}
	w.Header().Set("Content-Type", ContentType)
	_, _ = w.Write(buf.Bytes())
	putBuf(buf)
}

func writeFault(w http.ResponseWriter, status int, code, msg, detail string) {
	writeFaultDoc(w, status, &Fault{Code: "soap:" + code, String: msg, Detail: detail})
}

func writeFaultDoc(w http.ResponseWriter, status int, f *Fault) {
	buf := getBuf()
	if err := marshalBuf(buf, f); err != nil {
		putBuf(buf)
		http.Error(w, f.String, status)
		return
	}
	w.Header().Set("Content-Type", ContentType)
	w.WriteHeader(status)
	_, _ = w.Write(buf.Bytes())
	putBuf(buf)
}

// Client calls SOAP endpoints.
type Client struct {
	// HTTPClient defaults to http.DefaultClient.
	HTTPClient *http.Client
	// Endpoint is the service URL.
	Endpoint string
	// Faults injects client-side transport failures (site
	// "soapx.client"); nil injects nothing.
	Faults *faultx.Injector
}

// Call sends request (marshaled into an envelope) and decodes the response
// body into response. SOAP faults are returned as *Fault errors;
// transport-level failures wrap ErrTransport.
func (c *Client) Call(request, response any) error {
	data, err := Marshal(request)
	if err != nil {
		return err
	}
	return c.Faults.Do("soapx.client", func() error {
		hc := c.HTTPClient
		if hc == nil {
			hc = http.DefaultClient
		}
		resp, err := hc.Post(c.Endpoint, ContentType, bytes.NewReader(data))
		if err != nil {
			return fmt.Errorf("soapx: post %s: %w (%v)", c.Endpoint, ErrTransport, err)
		}
		defer resp.Body.Close()
		out, err := io.ReadAll(io.LimitReader(resp.Body, 4<<20))
		if err != nil {
			return fmt.Errorf("soapx: read response: %w (%v)", ErrTransport, err)
		}
		return Unmarshal(out, response)
	})
}
