// Package httpapi is the JSON binding of the broker's operation table
// (core.Ops), mounted next to the SOAP endpoint on the same soapx.Mux
// (via HandleHTTP, so one listener serves both). It is the lean transport
// for high-volume clients: no envelope parse, no XML reflection, pooled
// response encoding. SOAP remains the paper-faithful reference
// transport; both run the same table rows, so whatever the broker does
// for one wire — group commits on an intake broker, forwarding to a
// federation neighbor — it does for the other.
package httpapi

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"

	"gqosm/internal/core"
	"gqosm/internal/sla"
	"gqosm/internal/soapx"
)

// Prefix is the URL subtree the API is mounted on; an operation is
// served at Prefix + its table name.
const Prefix = "/api/v1/"

// maxBody bounds request bodies (the JSON requests are small; 1 MiB is
// generous).
const maxBody = 1 << 20

// route is what JSON adds to a table row: the method it is served
// under, request → core.OpArgs, core.OpResult → response body.
type route struct {
	method string
	decode func(r *http.Request, body []byte) (core.OpArgs, error)
	encode func(dst []byte, res core.OpResult) []byte
}

// action is the route of every operation keyed by a session ID alone.
var action = route{http.MethodPost, decodeAction, encodeAck}

// routes is the JSON wire surface, keyed by operation name.
var routes = map[string]route{
	"request":          {http.MethodPost, decodeAdmission, encodeOffer},
	"accept":           action,
	"reject":           action,
	"invoke":           action,
	"terminate":        action,
	"accept_promotion": action,
	"renegotiate":      {http.MethodPost, decodeRenegotiate, encodeAck},
	"best-effort":      {http.MethodPost, decodeBestEffort, encodeAck},
	"session":          {http.MethodGet, decodeSessionQuery, encodeSession},
	"load":             {http.MethodGet, noArgs, encodeLoad},
	"policies":         {http.MethodGet, noArgs, encodePolicies},
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
	var (
		body []byte
		err  error
	)
	if rt.method == http.MethodPost {
		if body, err = io.ReadAll(io.LimitReader(r.Body, maxBody)); err != nil {
			err = fmt.Errorf("%w: read body: %v", errBadRequest, err)
		}
	}
	var args core.OpArgs
	if err == nil {
		args, err = rt.decode(r, body)
	}
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

func writeBody(w http.ResponseWriter, status int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	if status != http.StatusOK {
		w.WriteHeader(status)
	}
	_, _ = w.Write(body)
}

// ---- request → OpArgs ----------------------------------------------

func unmarshal(body []byte, v any) error {
	if err := json.Unmarshal(body, v); err != nil {
		return fmt.Errorf("%w: %v", errBadRequest, err)
	}
	return nil
}

func decodeAdmission(_ *http.Request, body []byte) (core.OpArgs, error) {
	var in RequestJSON
	if err := unmarshal(body, &in); err != nil {
		return core.OpArgs{}, err
	}
	req, err := decodeRequest(in)
	return core.OpArgs{Request: req}, err
}

func decodeAction(_ *http.Request, body []byte) (core.OpArgs, error) {
	var in ActionJSON
	if err := unmarshal(body, &in); err != nil {
		return core.OpArgs{}, err
	}
	if in.ID == "" {
		return core.OpArgs{}, fmt.Errorf("%w: missing id", errBadRequest)
	}
	return core.OpArgs{ID: sla.ID(in.ID), Reason: in.Reason}, nil
}

func decodeRenegotiate(_ *http.Request, body []byte) (core.OpArgs, error) {
	var in ActionJSON
	if err := unmarshal(body, &in); err != nil {
		return core.OpArgs{}, err
	}
	if in.ID == "" || in.Spec == nil {
		return core.OpArgs{}, fmt.Errorf("%w: renegotiate needs id and spec", errBadRequest)
	}
	spec, err := decodeSpec(*in.Spec)
	return core.OpArgs{ID: sla.ID(in.ID), Spec: spec}, err
}

func decodeBestEffort(_ *http.Request, body []byte) (core.OpArgs, error) {
	var in BestEffortJSON
	if err := unmarshal(body, &in); err != nil {
		return core.OpArgs{}, err
	}
	if in.Client == "" {
		return core.OpArgs{}, fmt.Errorf("%w: missing client", errBadRequest)
	}
	return core.OpArgs{
		Client:  in.Client,
		Amount:  CapacityJSON{CPU: in.CPU, MemoryMB: in.MemoryMB, DiskGB: in.DiskGB}.Capacity(),
		Release: in.Release,
	}, nil
}

func decodeSessionQuery(r *http.Request, _ []byte) (core.OpArgs, error) {
	id := r.URL.Query().Get("id")
	if id == "" {
		return core.OpArgs{}, fmt.Errorf("%w: missing id", errBadRequest)
	}
	return core.OpArgs{ID: sla.ID(id)}, nil
}

func noArgs(*http.Request, []byte) (core.OpArgs, error) { return core.OpArgs{}, nil }
