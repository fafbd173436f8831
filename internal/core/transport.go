package core

import (
	"encoding/xml"
	"errors"
	"fmt"
	"slices"
	"time"

	"gqosm/internal/resource"
	"gqosm/internal/sla"
	"gqosm/internal/soapx"
	"gqosm/internal/xmlmsg"
)

// This file is the SOAP binding of the operation table (ops.go) — Fig. 5:
// "clients send XML messages to the AQoS broker using SOAP over HTTP".
// What is SOAP's own lives here: which message element carries which
// rows, element → OpArgs, OpResult → reply document, error → coded
// fault. Client is the typed counterpart used by qosctl and remote
// applications.

// soapElement binds one SOAP body element to the table rows it carries.
type soapElement struct {
	name string
	// ops are the rows reachable through the element.
	ops []string
	// decode names the row the message asks for and builds its arguments.
	decode func(body []byte) (op string, a OpArgs, err error)
	encode func(OpResult) any
}

// soapElements is the SOAP wire surface: service_request, sla_action (the
// Fig. 7 client actions, one element whose Action names the row),
// renegotiate_request, load_report_request and best_effort_request.
var soapElements = []soapElement{
	{"service_request", []string{"request"},
		func(body []byte) (string, OpArgs, error) {
			var req xmlmsg.ServiceRequestXML
			if err := xml.Unmarshal(body, &req); err != nil {
				return "", OpArgs{}, err
			}
			r, err := decodeRequest(req)
			return "request", OpArgs{Request: r}, err
		},
		func(r OpResult) any {
			return &xmlmsg.ServiceOfferXML{
				SLA:     sla.EncodeDocument(r.Offer.SLA),
				Price:   r.Offer.Price,
				Expires: r.Offer.Expires.Format(xmlmsg.TimeLayout),
				Domain:  r.Domain,
			}
		}},
	{"sla_action", []string{"accept", "reject", "invoke", "terminate", "verify", "accept_promotion"},
		func(body []byte) (string, OpArgs, error) {
			var req xmlmsg.SLAActionXML
			err := xml.Unmarshal(body, &req)
			return req.Action, OpArgs{ID: sla.ID(req.SLAID), Reason: req.Reason}, err
		},
		func(r OpResult) any {
			if r.Levels != nil { // verify answers with the Table-3 document
				return r.Levels
			}
			return ackXML(r)
		}},
	{"renegotiate_request", []string{"renegotiate"},
		func(body []byte) (string, OpArgs, error) {
			var req xmlmsg.RenegotiateRequestXML
			if err := xml.Unmarshal(body, &req); err != nil {
				return "", OpArgs{}, err
			}
			spec, err := xmlmsg.DecodeSpec(req.Params, req.SourceIP, req.DestIP, req.MaxLoss)
			return "renegotiate", OpArgs{ID: sla.ID(req.SLAID), Spec: spec}, err
		},
		ackXML},
	{"load_report_request", []string{"load"},
		func([]byte) (string, OpArgs, error) { return "load", OpArgs{}, nil },
		func(r OpResult) any { return &loadReportXML{LoadReport: r.Load} }},
	{"best_effort_request", []string{"best-effort"},
		func(body []byte) (string, OpArgs, error) {
			var req xmlmsg.BestEffortRequestXML
			err := xml.Unmarshal(body, &req)
			return "best-effort", OpArgs{
				Client:  req.Client,
				Amount:  resource.Capacity{CPU: req.CPU, MemoryMB: req.Memory, DiskGB: req.Disk},
				Release: req.Release,
			}, err
		},
		ackXML},
}

func ackXML(r OpResult) any { return &xmlmsg.AckXML{OK: true, Detail: r.Detail} }

// loadReportXML is the load_report reply: the LoadReport under the
// message's element name.
type loadReportXML struct {
	XMLName xml.Name `xml:"load_report"`
	LoadReport
}

// Mount installs the broker's SOAP handlers on the mux, one per element
// of soapElements. A handler's error leaves as a fault whose detail is
// its taxonomy code (see errors.go); Client.call maps it back.
func (b *Broker) Mount(mux *soapx.Mux) {
	d := NewDispatcher(b, "soap")
	for _, el := range soapElements {
		mux.Handle(el.name, func(body []byte) (any, error) {
			op, args, err := el.decode(body)
			if err == nil && !slices.Contains(el.ops, op) {
				err = fmt.Errorf("core: unknown %s %q", el.name, op)
			}
			var res OpResult
			if err == nil {
				res, err = d.Run(op, args)
			}
			if err != nil {
				d.Failed()
				if code := WireCode(err); code != "" {
					err = &soapx.Fault{Code: "soap:Server", String: err.Error(), Detail: code}
				}
				return nil, err
			}
			return el.encode(res), nil
		})
	}
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
}

// NewClient returns a client for the broker at endpoint.
func NewClient(endpoint string) *Client {
	return &Client{SOAP: soapx.Client{Endpoint: endpoint}}
}

// call sends one SOAP request. A fault carrying a taxonomy code comes
// back matching the broker sentinel it names (and still matching
// *soapx.Fault).
func (c *Client) call(request, response any) error {
	err := c.SOAP.Call(request, response)
	var f *soapx.Fault
	if errors.As(err, &f) {
		err = WireError(f.Detail, err)
	}
	return err
}

// maxLossXML renders a spec's packet-loss bound in its Table-1 form.
func maxLossXML(spec sla.Spec) string {
	if spec.MaxPacketLossPct > 0 {
		return fmt.Sprintf("LessThan %g%%", spec.MaxPacketLossPct)
	}
	return ""
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
		MaxLoss:           maxLossXML(r.Spec),
		Start:             r.Start.Format(xmlmsg.TimeLayout),
		End:               r.End.Format(xmlmsg.TimeLayout),
		Budget:            r.Budget,
		AcceptDegradation: r.AcceptDegradation,
		AcceptTermination: r.AcceptTermination,
		PromotionOptIn:    r.PromotionOptIn,
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
	return c.ack(&xmlmsg.SLAActionXML{SLAID: string(id), Action: action, Reason: reason})
}

// ack sends a request answered by an acknowledgement and returns its
// detail.
func (c *Client) ack(request any) (string, error) {
	var resp xmlmsg.AckXML
	err := c.call(request, &resp)
	return resp.Detail, err
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

// LoadReport fetches the remote broker's current load.
func (c *Client) LoadReport() (LoadReport, error) {
	var resp loadReportXML
	err := c.call(&xmlmsg.LoadReportRequestXML{}, &resp)
	return resp.LoadReport, err
}

// Renegotiate replaces a live session's QoS specification remotely.
func (c *Client) Renegotiate(id sla.ID, spec sla.Spec) (string, error) {
	req := xmlmsg.RenegotiateRequestXML{
		SLAID:    string(id),
		Params:   xmlmsg.EncodeSpec(spec),
		SourceIP: spec.SourceIP,
		DestIP:   spec.DestIP,
		MaxLoss:  maxLossXML(spec),
	}
	return c.ack(&req)
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
	_, err := c.ack(&req)
	return err
}
