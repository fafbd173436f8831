package registry

import (
	"encoding/xml"
	"fmt"
	"time"

	"gqosm/internal/soapx"
)

// This file provides the registry's SOAP-over-HTTP transport: the UDDIe
// server side mounted on a soapx.Mux and a typed client, exchanging the
// XML documents below (simplified save_service / find_service shapes).

// ServiceXML is the wire form of a Service.
type ServiceXML struct {
	XMLName     xml.Name      `xml:"Service"`
	Key         string        `xml:"ServiceKey,attr,omitempty"`
	Name        string        `xml:"Name"`
	Provider    string        `xml:"Provider,omitempty"`
	Description string        `xml:"Description,omitempty"`
	AccessPoint string        `xml:"AccessPoint,omitempty"`
	Properties  []PropertyXML `xml:"PropertyBag>Property"`
	LeaseUntil  string        `xml:"LeaseUntil,omitempty"` // RFC 3339
}

// PropertyXML is the wire form of a Property.
type PropertyXML struct {
	Name  string `xml:"name,attr"`
	Type  string `xml:"type,attr"` // "string" | "number"
	Value string `xml:",chardata"`
}

// SaveServiceXML is the registration request.
type SaveServiceXML struct {
	XMLName xml.Name   `xml:"save_service"`
	Service ServiceXML `xml:"Service"`
}

// ServiceKeyXML is the registration response / lookup request.
type ServiceKeyXML struct {
	XMLName xml.Name `xml:"serviceKey"`
	Key     string   `xml:"Key"`
}

// FindServiceXML is the discovery request (UDDIe find_service with the
// propertyBag qualifier extension).
type FindServiceXML struct {
	XMLName     xml.Name    `xml:"find_service"`
	NamePattern string      `xml:"Name,omitempty"`
	MaxRows     int         `xml:"MaxRows,omitempty"`
	Filters     []FilterXML `xml:"PropertyFilter"`
}

// FilterXML is one property constraint on the wire.
type FilterXML struct {
	Name  string `xml:"name,attr"`
	Op    string `xml:"op,attr"`
	Value string `xml:",chardata"`
}

// ServiceListXML is the discovery response — "the UDDIe registry sends a
// list of matching services (if any) to the AQoS" (§2.1).
type ServiceListXML struct {
	XMLName  xml.Name     `xml:"serviceList"`
	Services []ServiceXML `xml:"Service"`
}

// DeleteServiceXML is the deregistration request.
type DeleteServiceXML struct {
	XMLName xml.Name `xml:"delete_service"`
	Key     string   `xml:"Key"`
}

// AckXML acknowledges requests without a payload.
type AckXML struct {
	XMLName xml.Name `xml:"ack"`
	OK      bool     `xml:"ok"`
}

func toXML(s *Service) ServiceXML {
	out := ServiceXML{
		Key:         string(s.Key),
		Name:        s.Name,
		Provider:    s.Provider,
		Description: s.Description,
		AccessPoint: s.AccessPoint,
	}
	for _, p := range s.Properties {
		typ := "string"
		if p.Type == Number {
			typ = "number"
		}
		out.Properties = append(out.Properties, PropertyXML{Name: p.Name, Type: typ, Value: p.Value()})
	}
	if !s.LeaseUntil.IsZero() {
		out.LeaseUntil = s.LeaseUntil.UTC().Format(time.RFC3339)
	}
	return out
}

// ServiceFromXML converts a wire-form service back: the discovery reply,
// a save_service request.
func ServiceFromXML(x ServiceXML) (Service, error) {
	s := Service{
		Key:         Key(x.Key),
		Name:        x.Name,
		Provider:    x.Provider,
		Description: x.Description,
		AccessPoint: x.AccessPoint,
	}
	for _, p := range x.Properties {
		switch p.Type {
		case "number":
			var num float64
			if _, err := fmt.Sscanf(p.Value, "%g", &num); err != nil {
				return Service{}, fmt.Errorf("%w: numeric property %s=%q", ErrBadProperty, p.Name, p.Value)
			}
			s.Properties = append(s.Properties, NumProp(p.Name, num))
		case "string", "":
			s.Properties = append(s.Properties, StrProp(p.Name, p.Value))
		default:
			return Service{}, fmt.Errorf("%w: unknown type %q", ErrBadProperty, p.Type)
		}
	}
	if x.LeaseUntil != "" {
		t, err := time.Parse(time.RFC3339, x.LeaseUntil)
		if err != nil {
			return Service{}, fmt.Errorf("registry: bad LeaseUntil: %w", err)
		}
		s.LeaseUntil = t
	}
	return s, nil
}

// Mount installs the registry's SOAP handlers (save_service, find_service,
// delete_service) on the mux.
func (r *Registry) Mount(mux *soapx.Mux) {
	mux.Handle("save_service", func(decode func(any) error) (any, error) {
		var req SaveServiceXML
		if err := decode(&req); err != nil {
			return nil, err
		}
		svc, err := ServiceFromXML(req.Service)
		if err != nil {
			return nil, err
		}
		key, err := r.Register(svc)
		if err != nil {
			return nil, err
		}
		return &ServiceKeyXML{Key: string(key)}, nil
	})
	mux.Handle("find_service", func(decode func(any) error) (any, error) {
		var req FindServiceXML
		if err := decode(&req); err != nil {
			return nil, err
		}
		q := Query{NamePattern: req.NamePattern, MaxRows: req.MaxRows}
		for _, f := range req.Filters {
			q.Filters = append(q.Filters, Filter{Name: f.Name, Op: Op(f.Op), Value: f.Value})
		}
		matches, err := r.Find(q)
		if err != nil {
			return nil, err
		}
		resp := &ServiceListXML{}
		for _, s := range matches {
			resp.Services = append(resp.Services, toXML(s))
		}
		return resp, nil
	})
	mux.Handle("delete_service", func(decode func(any) error) (any, error) {
		var req DeleteServiceXML
		if err := decode(&req); err != nil {
			return nil, err
		}
		if err := r.Deregister(Key(req.Key)); err != nil {
			return nil, err
		}
		return &AckXML{OK: true}, nil
	})
}

// Client is a typed SOAP client for a remote registry.
type Client struct {
	SOAP soapx.Client
}

// NewClient returns a client for the registry at endpoint.
func NewClient(endpoint string) *Client {
	return &Client{SOAP: soapx.Client{Endpoint: endpoint}}
}

// Register registers the service remotely and returns its key.
func (c *Client) Register(s Service) (Key, error) {
	var resp ServiceKeyXML
	sx := toXML(&s)
	if err := c.SOAP.Call(&SaveServiceXML{Service: sx}, &resp); err != nil {
		return "", err
	}
	return Key(resp.Key), nil
}

// Find runs a remote discovery query.
func (c *Client) Find(q Query) ([]*Service, error) {
	req := &FindServiceXML{NamePattern: q.NamePattern, MaxRows: q.MaxRows}
	for _, f := range q.Filters {
		req.Filters = append(req.Filters, FilterXML{Name: f.Name, Op: string(f.Op), Value: f.Value})
	}
	var resp ServiceListXML
	if err := c.SOAP.Call(req, &resp); err != nil {
		return nil, err
	}
	var out []*Service
	for _, sx := range resp.Services {
		s, err := ServiceFromXML(sx)
		if err != nil {
			return nil, err
		}
		out = append(out, &s)
	}
	return out, nil
}

// Deregister removes a remote registration.
func (c *Client) Deregister(k Key) error {
	var resp AckXML
	return c.SOAP.Call(&DeleteServiceXML{Key: string(k)}, &resp)
}
