package httpapi

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
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

// call posts e's body to op (GETs op when e is nil) and returns a 200
// reply in a pooled buffer, or the error any other reply carries.
func (c *Client) call(op string, e *requestBody) (*[]byte, error) {
	hc := c.HTTPClient
	if hc == nil {
		hc = http.DefaultClient
	}
	url := c.Endpoint + Prefix + op
	var (
		resp   *http.Response
		err    error
		method = http.MethodGet
	)
	if e == nil {
		resp, err = hc.Get(url)
	} else {
		method = http.MethodPost
		// The body sent is a copy, never pooled: a Transport may close a
		// request body after RoundTrip returns.
		payload := append([]byte(nil), *e.p...)
		if putBuf(e.p); e.err != nil {
			return nil, fmt.Errorf("httpapi: encode request: %w", e.err)
		}
		resp, err = hc.Post(url, "application/json", bytes.NewReader(payload))
	}
	if err != nil {
		return nil, fmt.Errorf("httpapi: %s %s: %w (%v)", method, url, ErrTransport, err)
	}
	defer resp.Body.Close()
	data, err := readBody(resp.Body, resp.ContentLength)
	switch {
	case errors.Is(err, errTooLarge):
		return nil, fmt.Errorf("httpapi: response %w", err)
	case err != nil:
		return nil, fmt.Errorf("httpapi: read response: %w (%v)", ErrTransport, err)
	}
	if resp.StatusCode == http.StatusOK {
		return data, nil
	}
	defer putBuf(data)
	var env ErrorJSON
	if jerr := json.Unmarshal(*data, &env); jerr != nil || env.Error.Code == "" {
		return nil, fmt.Errorf("httpapi: status %d: %s", resp.StatusCode, bytes.TrimSpace(*data))
	}
	return nil, decodeError(env.Error.Code, env.Error.Message)
}

// post posts the body e holds to op and reads the reply into out, an
// offer or an acknowledgement.
func (c *Client) post(op string, e *requestBody, out any) error {
	data, err := c.call(op, e)
	if err != nil {
		return err
	}
	defer putBuf(data)
	if err := readJSON(*data, out); err != nil {
		return fmt.Errorf("httpapi: decode response: %w (%v)", ErrTransport, err)
	}
	return nil
}

// RequestService sends an admission request and returns the offer.
func (c *Client) RequestService(r core.Request) (*OfferJSON, error) {
	e := newRequestBody()
	e.request(r)
	var out OfferJSON
	if err := c.post("request", &e, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Act performs a lifecycle action ("accept", "reject", "invoke",
// "terminate", "accept_promotion") and returns the acknowledgement
// detail.
func (c *Client) Act(id sla.ID, action, reason string) (string, error) {
	e, out := newRequestBody(), AckJSON{}
	e.action(string(id), reason, nil)
	err := c.post(action, &e, &out)
	return out.Detail, err
}

// Renegotiate replaces a live session's QoS specification remotely.
func (c *Client) Renegotiate(id sla.ID, spec sla.Spec) (string, error) {
	e, out := newRequestBody(), AckJSON{}
	e.action(string(id), "", &spec)
	err := c.post("renegotiate", &e, &out)
	return out.Detail, err
}

// BestEffort requests (or releases) best-effort capacity.
func (c *Client) BestEffort(client string, amount resource.Capacity, release bool) error {
	e := newRequestBody()
	e.bestEffort(client, amount, release)
	return c.post("best-effort", &e, new(AckJSON))
}

// LoadReport fetches the broker's current load for front-tier
// placement.
func (c *Client) LoadReport() (core.LoadReport, error) {
	var out core.LoadReport
	data, err := c.call("load", nil)
	if err != nil {
		return out, err
	}
	defer putBuf(data)
	if err := json.Unmarshal(*data, &out); err != nil { // the cold management read
		return out, fmt.Errorf("httpapi: decode response: %w (%v)", ErrTransport, err)
	}
	return out, nil
}
