package core

import (
	"encoding/xml"
	"errors"
	"fmt"
	"time"

	"gqosm/internal/obs"
	"gqosm/internal/resource"
	"gqosm/internal/sla"
	"gqosm/internal/soapx"
	"gqosm/internal/xmlmsg"
)

// This file exposes the broker over SOAP/HTTP (Fig. 5: "clients send XML
// messages to the AQoS broker using SOAP over HTTP"): Mount installs the
// handlers; Client is the typed counterpart used by qosctl and remote
// applications.

// coded puts the taxonomy code of a handler's error (see errors.go) on
// its SOAP fault, as the fault detail; Client.call maps it back.
func coded(h soapx.HandlerFunc) soapx.HandlerFunc {
	return func(body []byte) (any, error) {
		resp, err := h(body)
		if code := WireCode(err); code != "" {
			err = &soapx.Fault{Code: "soap:Server", String: err.Error(), Detail: code}
		}
		return resp, err
	}
}

// Mount installs the broker's SOAP handlers on the mux: service_request,
// sla_action (accept / reject / invoke / terminate / verify /
// accept_promotion — the Fig. 7 client actions), and best_effort_request.
func (b *Broker) Mount(mux *soapx.Mux) {
	// Per-transport traffic counters: the JSON API registers the same
	// family with transport="http", so dashboards see the split.
	count := func(op string) *obs.Counter {
		return b.obs.Counter("gqosm_transport_requests_total",
			"Requests served per transport and operation",
			"transport", "soap", "op", op)
	}
	serviceRequests := count("service_request")
	slaActions := count("sla_action")
	renegotiations := count("renegotiate_request")
	loadReports := count("load_report_request")
	bestEfforts := count("best_effort_request")

	mux.Handle("service_request", coded(func(body []byte) (any, error) {
		serviceRequests.Inc()
		var req xmlmsg.ServiceRequestXML
		if err := xml.Unmarshal(body, &req); err != nil {
			return nil, err
		}
		r, err := decodeRequest(req)
		if err != nil {
			return nil, err
		}
		offer, err := b.RequestService(r)
		if err != nil {
			return nil, err
		}
		return &xmlmsg.ServiceOfferXML{
			SLA:     sla.EncodeDocument(offer.SLA),
			Price:   offer.Price,
			Expires: offer.Expires.Format(xmlmsg.TimeLayout),
		}, nil
	}))

	mux.Handle("sla_action", coded(func(body []byte) (any, error) {
		slaActions.Inc()
		var req xmlmsg.SLAActionXML
		if err := xml.Unmarshal(body, &req); err != nil {
			return nil, err
		}
		id := sla.ID(req.SLAID)
		switch req.Action {
		case "accept":
			if err := b.Accept(id); err != nil {
				return nil, err
			}
		case "reject":
			if err := b.Reject(id); err != nil {
				return nil, err
			}
		case "invoke":
			job, err := b.Invoke(id)
			if err != nil {
				return nil, err
			}
			return &xmlmsg.AckXML{OK: true, Detail: fmt.Sprintf("job %s pid %d", job.ID, job.PID)}, nil
		case "terminate":
			if err := b.Terminate(id, nonEmpty(req.Reason, "terminated by client")); err != nil {
				return nil, err
			}
		case "verify":
			rep, err := b.Verify(id)
			if err != nil {
				return nil, err
			}
			return &rep.XML, nil
		case "accept_promotion":
			if err := b.AcceptPromotion(id); err != nil {
				return nil, err
			}
		default:
			return nil, fmt.Errorf("core: unknown sla_action %q", req.Action)
		}
		return &xmlmsg.AckXML{OK: true}, nil
	}))

	mux.Handle("renegotiate_request", coded(func(body []byte) (any, error) {
		renegotiations.Inc()
		var req xmlmsg.RenegotiateRequestXML
		if err := xml.Unmarshal(body, &req); err != nil {
			return nil, err
		}
		spec, err := xmlmsg.DecodeSpec(req.Params, req.SourceIP, req.DestIP, req.MaxLoss)
		if err != nil {
			return nil, err
		}
		res, err := b.Renegotiate(sla.ID(req.SLAID), spec)
		if err != nil {
			return nil, err
		}
		return &xmlmsg.AckXML{
			OK: true,
			Detail: fmt.Sprintf("reallocated %v -> %v, price %+.2f",
				res.Old, res.New, res.PriceDelta),
		}, nil
	}))

	mux.Handle("load_report_request", coded(func(body []byte) (any, error) {
		loadReports.Inc()
		r := b.LoadReport()
		return &xmlmsg.LoadReportXML{
			Domain:     r.Domain,
			Sessions:   r.Sessions,
			Load:       r.Load,
			Recovering: r.Recovering,
		}, nil
	}))

	mux.Handle("best_effort_request", coded(func(body []byte) (any, error) {
		bestEfforts.Inc()
		var req xmlmsg.BestEffortRequestXML
		if err := xml.Unmarshal(body, &req); err != nil {
			return nil, err
		}
		if req.Release {
			if err := b.BestEffortRelease(req.Client); err != nil {
				return nil, err
			}
			return &xmlmsg.AckXML{OK: true}, nil
		}
		amount := resource.Capacity{CPU: req.CPU, MemoryMB: req.Memory, DiskGB: req.Disk}
		if err := b.BestEffortRequest(req.Client, amount); err != nil {
			return nil, err
		}
		return &xmlmsg.AckXML{OK: true, Detail: "granted " + amount.String()}, nil
	}))
}

func decodeRequest(req xmlmsg.ServiceRequestXML) (Request, error) {
	class, err := sla.ParseClass(req.Class)
	if err != nil {
		return Request{}, err
	}
	spec, err := xmlmsg.DecodeSpec(req.Params, req.SourceIP, req.DestIP, req.MaxLoss)
	if err != nil {
		return Request{}, err
	}
	start, err := time.Parse(xmlmsg.TimeLayout, req.Start)
	if err != nil {
		return Request{}, fmt.Errorf("core: bad Start: %w", err)
	}
	end, err := time.Parse(xmlmsg.TimeLayout, req.End)
	if err != nil {
		return Request{}, fmt.Errorf("core: bad End: %w", err)
	}
	return Request{
		Service:           req.Service,
		Client:            req.Client,
		Class:             class,
		Spec:              spec,
		Start:             start,
		End:               end,
		Budget:            req.Budget,
		AcceptDegradation: req.AcceptDegradation,
		AcceptTermination: req.AcceptTermination,
		PromotionOptIn:    req.PromotionOptIn,
	}, nil
}

// Client is a typed SOAP client for a remote AQoS broker.
type Client struct {
	SOAP soapx.Client
	// Retries is the number of extra attempts after a transport-level
	// failure (connection refused/reset, an injected wire fault): the
	// request may never have reached the broker, so resending is the
	// right move. SOAP faults are definitive answers and never retried.
	// 0 keeps the historical single attempt.
	Retries int
	// RetryDelay is the pause between attempts, in real time — the
	// client talks to live endpoints, not a simulated clock.
	RetryDelay time.Duration
}

// NewClient returns a client for the broker at endpoint.
func NewClient(endpoint string) *Client {
	return &Client{SOAP: soapx.Client{Endpoint: endpoint}}
}

// call sends one SOAP request under the client's transport-retry
// budget. A fault carrying a taxonomy code comes back matching the
// broker sentinel it names (and still matching *soapx.Fault).
func (c *Client) call(request, response any) error {
	var err error
	for attempt := 0; ; attempt++ {
		err = c.SOAP.Call(request, response)
		if err == nil || !errors.Is(err, soapx.ErrTransport) || attempt >= c.Retries {
			var f *soapx.Fault
			if errors.As(err, &f) {
				err = WireError(f.Detail, err)
			}
			return err
		}
		if c.RetryDelay > 0 {
			time.Sleep(c.RetryDelay)
		}
	}
}

// RequestService sends a service_request and returns the offer.
func (c *Client) RequestService(r Request) (*xmlmsg.ServiceOfferXML, error) {
	req := xmlmsg.ServiceRequestXML{
		Service:           r.Service,
		Client:            r.Client,
		Class:             r.Class.String(),
		Params:            xmlmsg.EncodeSpec(r.Spec),
		SourceIP:          r.Spec.SourceIP,
		DestIP:            r.Spec.DestIP,
		Start:             r.Start.Format(xmlmsg.TimeLayout),
		End:               r.End.Format(xmlmsg.TimeLayout),
		Budget:            r.Budget,
		AcceptDegradation: r.AcceptDegradation,
		AcceptTermination: r.AcceptTermination,
		PromotionOptIn:    r.PromotionOptIn,
	}
	if r.Spec.MaxPacketLossPct > 0 {
		req.MaxLoss = fmt.Sprintf("LessThan %g%%", r.Spec.MaxPacketLossPct)
	}
	var resp xmlmsg.ServiceOfferXML
	if err := c.call(&req, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Act performs an sla_action ("accept", "reject", "invoke", "terminate",
// "accept_promotion") and returns the acknowledgement detail.
func (c *Client) Act(id sla.ID, action, reason string) (string, error) {
	var resp xmlmsg.AckXML
	err := c.call(&xmlmsg.SLAActionXML{SLAID: string(id), Action: action, Reason: reason}, &resp)
	if err != nil {
		return "", err
	}
	return resp.Detail, nil
}

// Verify requests an explicit SLA conformance test, returning the Table-3
// document.
func (c *Client) Verify(id sla.ID) (*QoSLevelsXML, error) {
	var resp QoSLevelsXML
	if err := c.call(&xmlmsg.SLAActionXML{SLAID: string(id), Action: "verify"}, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// LoadReport fetches the remote broker's current load for front-tier
// placement.
func (c *Client) LoadReport() (LoadReport, error) {
	var resp xmlmsg.LoadReportXML
	if err := c.call(&xmlmsg.LoadReportRequestXML{}, &resp); err != nil {
		return LoadReport{}, err
	}
	return LoadReport{
		Domain:     resp.Domain,
		Sessions:   resp.Sessions,
		Load:       resp.Load,
		Recovering: resp.Recovering,
	}, nil
}

// decodeOfferSLA converts a wire offer back into the SLA document (used
// by federation peers).
func decodeOfferSLA(resp *xmlmsg.ServiceOfferXML) (*sla.Document, error) {
	doc, err := sla.DecodeDocument(resp.SLA)
	if err != nil {
		return nil, fmt.Errorf("core: decode peer offer: %w", err)
	}
	return doc, nil
}

// Renegotiate replaces a live session's QoS specification remotely.
func (c *Client) Renegotiate(id sla.ID, spec sla.Spec) (string, error) {
	req := xmlmsg.RenegotiateRequestXML{
		SLAID:    string(id),
		Params:   xmlmsg.EncodeSpec(spec),
		SourceIP: spec.SourceIP,
		DestIP:   spec.DestIP,
	}
	if spec.MaxPacketLossPct > 0 {
		req.MaxLoss = fmt.Sprintf("LessThan %g%%", spec.MaxPacketLossPct)
	}
	var resp xmlmsg.AckXML
	if err := c.call(&req, &resp); err != nil {
		return "", err
	}
	return resp.Detail, nil
}

// BestEffort requests (or releases) best-effort capacity.
func (c *Client) BestEffort(client string, amount resource.Capacity, release bool) error {
	req := xmlmsg.BestEffortRequestXML{
		Client:  client,
		CPU:     amount.CPU,
		Memory:  amount.MemoryMB,
		Disk:    amount.DiskGB,
		Release: release,
	}
	var resp xmlmsg.AckXML
	return c.call(&req, &resp)
}
