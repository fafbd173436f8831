// Package httpapi exposes the broker over a compact JSON/HTTP API,
// mounted next to the SOAP endpoint on the same soapx.Mux (via
// HandleHTTP, so one listener serves both). It is the lean transport
// for high-volume clients: no envelope parse, no XML reflection,
// pooled response encoding. SOAP remains the paper-faithful reference
// transport; both call the same Broker.RequestService, so on an
// intake-enabled broker admissions over either share group commits.
package httpapi

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"

	"gqosm/internal/core"
	"gqosm/internal/obs"
	"gqosm/internal/sla"
	"gqosm/internal/soapx"
)

// Prefix is the URL subtree the API is mounted on.
const Prefix = "/api/v1/"

// maxBody bounds request bodies (the JSON requests are small; 1 MiB is
// generous).
const maxBody = 1 << 20

// ops enumerates the API's operations; per-op request counters are
// pre-registered so the hot path pays one map lookup, no registry lock.
var ops = []string{"request", "accept", "reject", "invoke", "terminate",
	"renegotiate", "best-effort", "session", "load", "policies"}

// Server serves the JSON API for one broker.
type Server struct {
	b    *core.Broker
	reqs map[string]*obs.Counter
	errs *obs.Counter
}

// NewServer builds a server over the broker, registering its
// per-transport counters on the broker's obs registry (the SOAP side
// registers the same family with transport="soap", so dashboards see
// traffic split by transport and operation).
func NewServer(b *core.Broker) *Server {
	reg := b.Obs()
	s := &Server{
		b:    b,
		reqs: make(map[string]*obs.Counter, len(ops)),
		errs: reg.Counter("gqosm_transport_errors_total",
			"Requests answered with an error, per transport", "transport", "http"),
	}
	for _, op := range ops {
		s.reqs[op] = reg.Counter("gqosm_transport_requests_total",
			"Requests served per transport and operation",
			"transport", "http", "op", op)
	}
	return s
}

// Mount installs the API on the mux under Prefix.
func (s *Server) Mount(mux *soapx.Mux) {
	mux.HandleHTTP(Prefix, s)
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	op := strings.TrimPrefix(r.URL.Path, Prefix)
	if c, ok := s.reqs[op]; ok {
		c.Inc()
	}
	switch op {
	case "request":
		s.post(w, r, s.handleRequest)
	case "accept", "reject", "invoke", "terminate":
		s.post(w, r, func(w http.ResponseWriter, body []byte) error {
			return s.handleAction(w, op, body)
		})
	case "renegotiate":
		s.post(w, r, s.handleRenegotiate)
	case "best-effort":
		s.post(w, r, s.handleBestEffort)
	case "session":
		if r.Method != http.MethodGet {
			s.methodNotAllowed(w, http.MethodGet)
			return
		}
		s.finish(w, s.handleSession(w, r))
	case "load":
		if r.Method != http.MethodGet {
			s.methodNotAllowed(w, http.MethodGet)
			return
		}
		s.writeBody(w, http.StatusOK, marshalJSON(s.b.LoadReport()))
	case "policies":
		if r.Method != http.MethodGet {
			s.methodNotAllowed(w, http.MethodGet)
			return
		}
		s.writeBody(w, http.StatusOK, marshalJSON(s.b.Policies()))
	default:
		s.writeError(w, http.StatusNotFound, "not_found", "unknown endpoint "+r.URL.Path)
	}
}

// post reads a POST body and runs the handler, converting its error to
// the wire taxonomy.
func (s *Server) post(w http.ResponseWriter, r *http.Request, h func(http.ResponseWriter, []byte) error) {
	if r.Method != http.MethodPost {
		s.methodNotAllowed(w, http.MethodPost)
		return
	}
	body, err := io.ReadAll(io.LimitReader(r.Body, maxBody))
	if err != nil {
		s.finish(w, fmt.Errorf("%w: read body: %v", errBadRequest, err))
		return
	}
	s.finish(w, h(w, body))
}

// finish writes err through the taxonomy; nil means the handler already
// wrote its response.
func (s *Server) finish(w http.ResponseWriter, err error) {
	if err == nil {
		return
	}
	status, code := classify(err)
	s.writeError(w, status, code, err.Error())
}

func (s *Server) methodNotAllowed(w http.ResponseWriter, allow string) {
	w.Header().Set("Allow", allow)
	s.writeError(w, http.StatusMethodNotAllowed, "method_not_allowed", "use "+allow)
}

func (s *Server) writeError(w http.ResponseWriter, status int, code, message string) {
	s.errs.Inc()
	buf := getBuf()
	*buf = appendError(*buf, code, message)
	s.writeBody(w, status, *buf)
	putBuf(buf)
}

func (s *Server) writeBody(w http.ResponseWriter, status int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	if status != http.StatusOK {
		w.WriteHeader(status)
	}
	_, _ = w.Write(body)
}

// handleRequest is the admission endpoint.
func (s *Server) handleRequest(w http.ResponseWriter, body []byte) error {
	var in RequestJSON
	if err := json.Unmarshal(body, &in); err != nil {
		return fmt.Errorf("%w: %v", errBadRequest, err)
	}
	req, err := decodeRequest(in)
	if err != nil {
		return err
	}
	offer, err := s.b.RequestService(req)
	if err != nil {
		return err
	}
	buf := getBuf()
	*buf = appendOffer(*buf, offer)
	s.writeBody(w, http.StatusOK, *buf)
	putBuf(buf)
	return nil
}

func (s *Server) handleAction(w http.ResponseWriter, op string, body []byte) error {
	var in ActionJSON
	if err := json.Unmarshal(body, &in); err != nil {
		return fmt.Errorf("%w: %v", errBadRequest, err)
	}
	if in.ID == "" {
		return fmt.Errorf("%w: missing id", errBadRequest)
	}
	id := sla.ID(in.ID)
	detail := ""
	switch op {
	case "accept":
		if err := s.b.Accept(id); err != nil {
			return err
		}
	case "reject":
		if err := s.b.Reject(id); err != nil {
			return err
		}
	case "invoke":
		job, err := s.b.Invoke(id)
		if err != nil {
			return err
		}
		detail = fmt.Sprintf("job %s pid %d", job.ID, job.PID)
	case "terminate":
		reason := in.Reason
		if reason == "" {
			reason = "terminated by client"
		}
		if err := s.b.Terminate(id, reason); err != nil {
			return err
		}
	}
	buf := getBuf()
	*buf = appendAck(*buf, detail)
	s.writeBody(w, http.StatusOK, *buf)
	putBuf(buf)
	return nil
}

func (s *Server) handleRenegotiate(w http.ResponseWriter, body []byte) error {
	var in ActionJSON
	if err := json.Unmarshal(body, &in); err != nil {
		return fmt.Errorf("%w: %v", errBadRequest, err)
	}
	if in.ID == "" || in.Spec == nil {
		return fmt.Errorf("%w: renegotiate needs id and spec", errBadRequest)
	}
	spec, err := decodeSpec(*in.Spec)
	if err != nil {
		return err
	}
	res, err := s.b.Renegotiate(sla.ID(in.ID), spec)
	if err != nil {
		return err
	}
	buf := getBuf()
	*buf = appendAck(*buf, fmt.Sprintf("reallocated %v -> %v, price %+.2f",
		res.Old, res.New, res.PriceDelta))
	s.writeBody(w, http.StatusOK, *buf)
	putBuf(buf)
	return nil
}

func (s *Server) handleBestEffort(w http.ResponseWriter, body []byte) error {
	var in BestEffortJSON
	if err := json.Unmarshal(body, &in); err != nil {
		return fmt.Errorf("%w: %v", errBadRequest, err)
	}
	if in.Client == "" {
		return fmt.Errorf("%w: missing client", errBadRequest)
	}
	if in.Release {
		if err := s.b.BestEffortRelease(in.Client); err != nil {
			return err
		}
	} else {
		amount := CapacityJSON{CPU: in.CPU, MemoryMB: in.MemoryMB, DiskGB: in.DiskGB}.Capacity()
		if err := s.b.BestEffortRequest(in.Client, amount); err != nil {
			return err
		}
	}
	buf := getBuf()
	*buf = appendAck(*buf, "")
	s.writeBody(w, http.StatusOK, *buf)
	putBuf(buf)
	return nil
}

func (s *Server) handleSession(w http.ResponseWriter, r *http.Request) error {
	id := r.URL.Query().Get("id")
	if id == "" {
		return fmt.Errorf("%w: missing id", errBadRequest)
	}
	doc, err := s.b.Session(sla.ID(id))
	if err != nil {
		return err
	}
	buf := getBuf()
	*buf = appendSession(*buf, doc)
	s.writeBody(w, http.StatusOK, *buf)
	putBuf(buf)
	return nil
}
