package httpapi

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"

	"gqosm/internal/core"
	"gqosm/internal/resource"
	"gqosm/internal/sla"
)

// Client is the typed JSON-API counterpart of core.Client: same
// operations, and wire errors come back as the broker's own sentinels —
// errors.Is against core.ErrOverBudget &c. works through the transport.
type Client struct {
	// Endpoint is the broker's base URL (no /api/v1 suffix).
	Endpoint string
	// HTTPClient defaults to http.DefaultClient.
	HTTPClient *http.Client
}

// NewClient returns a client for the broker at endpoint.
func NewClient(endpoint string) *Client {
	return &Client{Endpoint: endpoint}
}

// call posts body to op (or GETs when body is nil) and decodes the JSON
// response into out.
func (c *Client) call(method, op string, body, out any) error {
	var payload []byte
	if body != nil {
		var err error
		payload, err = json.Marshal(body)
		if err != nil {
			return fmt.Errorf("httpapi: marshal request: %w", err)
		}
	}
	hc := c.HTTPClient
	if hc == nil {
		hc = http.DefaultClient
	}
	url := c.Endpoint + Prefix + op
	var (
		resp *http.Response
		err  error
	)
	if method == http.MethodGet {
		resp, err = hc.Get(url)
	} else {
		resp, err = hc.Post(url, "application/json", bytes.NewReader(payload))
	}
	if err != nil {
		return fmt.Errorf("httpapi: %s %s: %w (%v)", method, url, ErrTransport, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, maxBody))
	if err != nil {
		return fmt.Errorf("httpapi: read response: %w (%v)", ErrTransport, err)
	}
	if resp.StatusCode != http.StatusOK {
		var e ErrorJSON
		if jerr := json.Unmarshal(data, &e); jerr != nil || e.Error.Code == "" {
			return fmt.Errorf("httpapi: status %d: %s", resp.StatusCode, bytes.TrimSpace(data))
		}
		return decodeError(e.Error.Code, e.Error.Message)
	}
	if out == nil {
		return nil
	}
	if err := json.Unmarshal(data, out); err != nil {
		return fmt.Errorf("httpapi: decode response: %w (%v)", ErrTransport, err)
	}
	return nil
}

// RequestService sends an admission request and returns the offer.
func (c *Client) RequestService(r core.Request) (*OfferJSON, error) {
	req := RequestJSON{
		Service:           r.Service,
		Client:            r.Client,
		Class:             r.Class.String(),
		Spec:              encodeSpec(r.Spec),
		Start:             r.Start,
		End:               r.End,
		Budget:            r.Budget,
		AcceptDegradation: r.AcceptDegradation,
		AcceptTermination: r.AcceptTermination,
		PromotionOptIn:    r.PromotionOptIn,
	}
	var out OfferJSON
	if err := c.call(http.MethodPost, "request", &req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Act performs a lifecycle action ("accept", "reject", "invoke",
// "terminate", "accept_promotion") and returns the acknowledgement
// detail.
func (c *Client) Act(id sla.ID, action, reason string) (string, error) {
	return c.ack(action, &ActionJSON{ID: string(id), Reason: reason})
}

// ack posts a request answered by an acknowledgement and returns its
// detail.
func (c *Client) ack(op string, body any) (string, error) {
	var out AckJSON
	err := c.call(http.MethodPost, op, body, &out)
	return out.Detail, err
}

// Renegotiate replaces a live session's QoS specification remotely.
func (c *Client) Renegotiate(id sla.ID, spec sla.Spec) (string, error) {
	sj := encodeSpec(spec)
	return c.ack("renegotiate", &ActionJSON{ID: string(id), Spec: &sj})
}

// BestEffort requests (or releases) best-effort capacity.
func (c *Client) BestEffort(client string, amount resource.Capacity, release bool) error {
	_, err := c.ack("best-effort", &BestEffortJSON{
		Client:   client,
		CPU:      amount.CPU,
		MemoryMB: amount.MemoryMB,
		DiskGB:   amount.DiskGB,
		Release:  release,
	})
	return err
}

// LoadReport fetches the broker's current load for front-tier
// placement.
func (c *Client) LoadReport() (core.LoadReport, error) {
	var out core.LoadReport
	err := c.call(http.MethodGet, "load", nil, &out)
	return out, err
}
