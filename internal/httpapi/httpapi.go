// Package httpapi is the JSON binding of the broker's operation table
// (core.Ops), mounted next to the SOAP endpoint on the same soapx.Mux
// (via HandleHTTP, so one listener serves both). It is the lean transport
// for high-volume clients: no envelope, no reflection per message — a
// strict reader and hand-appended bodies over pooled buffers, both ways.
// SOAP remains the paper-faithful reference transport; both run the same
// table rows, so whatever the broker does for one wire — group commits
// on an intake broker, forwarding to a federation neighbor — it does for
// the other.
package httpapi

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"

	"gqosm/internal/core"
	"gqosm/internal/resource"
	"gqosm/internal/sla"
	"gqosm/internal/soapx"
)

// Prefix is the URL subtree the API is mounted on; an operation is
// served at Prefix + its table name.
const Prefix = "/api/v1/"

// maxBody bounds the bodies either side reads (the JSON messages are
// small; 1 MiB is generous).
const maxBody = 1 << 20

var errTooLarge = errors.New("body exceeds the 1 MiB limit")

// readBody reads a body of at most maxBody bytes into a pooled buffer
// (putBuf releases it), sized from its Content-Length n when known.
func readBody(src io.Reader, n int64) (*[]byte, error) {
	if n > maxBody {
		return nil, errTooLarge
	}
	p := getBuf()
	if n >= int64(cap(*p)) {
		*p = make([]byte, 0, n+1)
	}
	for {
		b := *p
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
		m, err := src.Read(b[len(b):cap(b)])
		if *p = b[:len(b)+m]; len(*p) > maxBody {
			err = errTooLarge
		}
		if err == io.EOF {
			return p, nil
		}
		if err != nil {
			putBuf(p)
			return nil, err
		}
	}
}

// route is what JSON adds to a table row: the method it is served
// under, request → core.OpArgs, core.OpResult → response body.
type route struct {
	method string
	decode func(r *http.Request) (core.OpArgs, error)
	encode func(dst []byte, res core.OpResult) []byte
}

// action is the route of every operation keyed by a session ID alone.
var action = route{http.MethodPost, post(actionArgs), encodeAck}

// routes is the JSON wire surface, keyed by operation name.
var routes = map[string]route{
	"request":          {http.MethodPost, post(decodeRequest), encodeOffer},
	"accept":           action,
	"reject":           action,
	"invoke":           action,
	"terminate":        action,
	"accept_promotion": action,
	"renegotiate":      {http.MethodPost, post(renegotiateArgs), encodeAck},
	"best-effort":      {http.MethodPost, post(bestEffortArgs), encodeAck},
	"session":          {http.MethodGet, decodeSessionQuery, encodeSession},
	"load":             {http.MethodGet, noArgs, encodeLoad},
}

// Server serves the JSON API for one broker.
type Server struct {
	d *core.Dispatcher
}

// NewServer builds a server over the broker.
func NewServer(b *core.Broker) *Server {
	return &Server{d: core.NewDispatcher(b, "http")}
}

// Mount installs the API on the mux under Prefix.
func (s *Server) Mount(mux *soapx.Mux) {
	mux.HandleHTTP(Prefix, s)
}

// ServeHTTP implements http.Handler: route, decode, run the row, encode.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	op := strings.TrimPrefix(r.URL.Path, Prefix)
	rt, ok := routes[op]
	if !ok {
		s.writeError(w, http.StatusNotFound, "not_found", "unknown endpoint "+r.URL.Path)
		return
	}
	if r.Method != rt.method {
		w.Header().Set("Allow", rt.method)
		s.writeError(w, http.StatusMethodNotAllowed, "method_not_allowed", "use "+rt.method)
		return
	}
	args, err := rt.decode(r)
	var res core.OpResult
	if err == nil {
		res, err = s.d.Run(op, args)
	}
	if err != nil {
		status, code := classify(err)
		s.writeError(w, status, code, err.Error())
		return
	}
	buf := getBuf()
	*buf = rt.encode(*buf, res)
	writeBody(w, http.StatusOK, *buf)
	putBuf(buf)
}

// writeError is the binding's single error exit.
func (s *Server) writeError(w http.ResponseWriter, status int, code, message string) {
	s.d.Failed()
	buf := getBuf()
	*buf = appendError(*buf, code, message)
	writeBody(w, status, *buf)
	putBuf(buf)
}

// jsonContentType is assigned, not Set, which allocates a slice per call.
var jsonContentType = []string{"application/json"}

func writeBody(w http.ResponseWriter, status int, body []byte) {
	w.Header()["Content-Type"] = jsonContentType
	if status != http.StatusOK {
		w.WriteHeader(status)
	}
	_, _ = w.Write(body)
}

// ---- request → OpArgs ----------------------------------------------

// post is the decode of a POST row: the body, in a pooled buffer, read
// by the strict reader into the row's wire struct T, then converted.
func post[T any](convert func(T) (core.OpArgs, error)) func(*http.Request) (core.OpArgs, error) {
	return func(r *http.Request) (core.OpArgs, error) {
		body, err := readBody(r.Body, r.ContentLength)
		switch {
		case errors.Is(err, errTooLarge):
			return core.OpArgs{}, fmt.Errorf("request %w", err)
		case err != nil:
			return core.OpArgs{}, fmt.Errorf("%w: read body: %v", core.ErrInvalidRequest, err)
		}
		var in T
		err = readJSON(*body, &in)
		if putBuf(body); err != nil {
			return core.OpArgs{}, fmt.Errorf("%w: %v", core.ErrInvalidRequest, err)
		}
		return convert(in)
	}
}

func actionArgs(in ActionJSON) (core.OpArgs, error) {
	if in.ID == "" {
		return core.OpArgs{}, fmt.Errorf("%w: missing id", core.ErrInvalidRequest)
	}
	return core.OpArgs{ID: sla.ID(in.ID), Reason: in.Reason}, nil
}

func renegotiateArgs(in ActionJSON) (core.OpArgs, error) {
	if in.ID == "" || in.Spec == nil {
		return core.OpArgs{}, fmt.Errorf("%w: renegotiate needs id and spec", core.ErrInvalidRequest)
	}
	spec, err := decodeSpec(*in.Spec)
	return core.OpArgs{ID: sla.ID(in.ID), Spec: spec}, err
}

func bestEffortArgs(in BestEffortJSON) (core.OpArgs, error) {
	if in.Client == "" {
		return core.OpArgs{}, fmt.Errorf("%w: missing client", core.ErrInvalidRequest)
	}
	return core.OpArgs{
		Client:  in.Client,
		Amount:  resource.Capacity{CPU: in.CPU, MemoryMB: in.MemoryMB, DiskGB: in.DiskGB},
		Release: in.Release,
	}, nil
}

func decodeSessionQuery(r *http.Request) (core.OpArgs, error) {
	id := r.URL.Query().Get("id")
	if id == "" {
		return core.OpArgs{}, fmt.Errorf("%w: missing id", core.ErrInvalidRequest)
	}
	return core.OpArgs{ID: sla.ID(id)}, nil
}

func noArgs(*http.Request) (core.OpArgs, error) { return core.OpArgs{}, nil }
