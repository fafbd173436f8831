package soapx

import (
	"encoding/xml"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"
)

type pingReq struct {
	XMLName xml.Name `xml:"ping"`
	Message string   `xml:"message"`
}

type pingResp struct {
	XMLName xml.Name `xml:"pingResponse"`
	Echo    string   `xml:"echo"`
}

func TestMarshalUnmarshalRoundTrip(t *testing.T) {
	data, err := Marshal(&pingReq{Message: "hello <grid>"})
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	s := string(data)
	if !strings.Contains(s, "<soap:Envelope") || !strings.Contains(s, "<soap:Body>") {
		t.Fatalf("envelope missing: %s", s)
	}
	var req pingReq
	if err := Unmarshal(data, &req); err != nil {
		t.Fatalf("Unmarshal: %v", err)
	}
	if req.Message != "hello <grid>" {
		t.Errorf("Message = %q (escaping broken?)", req.Message)
	}
}

func TestUnmarshalFault(t *testing.T) {
	data, err := Marshal(&Fault{Code: "soap:Server", String: "boom", Detail: "d"})
	if err != nil {
		t.Fatal(err)
	}
	var resp pingResp
	err = Unmarshal(data, &resp)
	var f *Fault
	if !errors.As(err, &f) {
		t.Fatalf("err = %v, want *Fault", err)
	}
	if f.String != "boom" || f.Error() != "soap fault soap:Server: boom" {
		t.Errorf("fault = %+v, Error() = %q", f, f.Error())
	}
}

func TestUnmarshalErrors(t *testing.T) {
	if err := Unmarshal([]byte("not xml"), &pingReq{}); err == nil {
		t.Error("bad envelope accepted")
	}
	empty := []byte(`<soap:Envelope xmlns:soap="` + EnvelopeNS + `"><soap:Body></soap:Body></soap:Envelope>`)
	if err := Unmarshal(empty, &pingReq{}); err == nil {
		t.Error("empty body accepted")
	}
}

func newEchoServer(t *testing.T) *httptest.Server {
	t.Helper()
	mux := NewMux()
	mux.Handle("ping", func(decode func(any) error) (any, error) {
		var req pingReq
		if err := decode(&req); err != nil {
			return nil, err
		}
		if req.Message == "fail" {
			return nil, errors.New("handler exploded")
		}
		return &pingResp{Echo: req.Message}, nil
	})
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv
}

func TestClientServerRoundTrip(t *testing.T) {
	srv := newEchoServer(t)
	c := Client{Endpoint: srv.URL}
	var resp pingResp
	if err := c.Call(&pingReq{Message: "qos"}, &resp); err != nil {
		t.Fatalf("Call: %v", err)
	}
	if resp.Echo != "qos" {
		t.Errorf("Echo = %q", resp.Echo)
	}
}

func TestServerFaultPropagatesToClient(t *testing.T) {
	srv := newEchoServer(t)
	c := Client{Endpoint: srv.URL}
	var resp pingResp
	err := c.Call(&pingReq{Message: "fail"}, &resp)
	var f *Fault
	if !errors.As(err, &f) {
		t.Fatalf("err = %v, want *Fault", err)
	}
	if !strings.Contains(f.String, "handler exploded") {
		t.Errorf("fault = %+v", f)
	}
}

func TestServerUnknownElement(t *testing.T) {
	srv := newEchoServer(t)
	c := Client{Endpoint: srv.URL}
	type nope struct {
		XMLName xml.Name `xml:"nope"`
	}
	var resp pingResp
	err := c.Call(&nope{}, &resp)
	var f *Fault
	if !errors.As(err, &f) {
		t.Fatalf("err = %v, want *Fault", err)
	}
	if !strings.Contains(f.String, "no handler") {
		t.Errorf("fault = %+v", f)
	}
}

func TestServerRejectsGet(t *testing.T) {
	srv := newEchoServer(t)
	resp, err := http.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET status = %d", resp.StatusCode)
	}
}

func TestServerRejectsGarbage(t *testing.T) {
	srv := newEchoServer(t)
	resp, err := http.Post(srv.URL, ContentType, strings.NewReader("<not-soap/>"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("garbage status = %d", resp.StatusCode)
	}
}

// TestServerBadEnvelopeIsClientFault: the mux reads an envelope once,
// handing the handler a decode function, and a document malformed
// anywhere is still answered 400 soap:Client "bad envelope" — whether the
// fault sits in the payload the handler decodes, after it, or in an
// envelope whose handler never decodes at all. A well-formed payload of
// the wrong shape stays the handler's 500 soap:Server fault.
func TestServerBadEnvelopeIsClientFault(t *testing.T) {
	mux := NewMux()
	mux.Handle("ping", func(decode func(any) error) (any, error) {
		var req pingReq
		if err := decode(&req); err != nil {
			return nil, err
		}
		return &pingResp{Echo: req.Message}, nil
	})
	mux.Handle("count", func(decode func(any) error) (any, error) {
		var req struct {
			N int `xml:"n"`
		}
		return &pingResp{}, decode(&req)
	})
	mux.Handle("load_report_request", func(func(any) error) (any, error) {
		return &pingResp{Echo: "load"}, nil
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()

	open := xml.Header + `<soap:Envelope xmlns:soap="` + EnvelopeNS + `"><soap:Body>`
	const shut = `</soap:Body></soap:Envelope>`
	for _, tc := range []struct {
		name, doc string
		status    int
		fault     string
	}{
		{"malformed payload", open + `<ping><message>x</ping>` + shut, 400, "bad envelope"},
		{"malformed after payload", open + `<ping/></soap:Body><junk></soap:Envelope>`, 400, "bad envelope"},
		{"undecoded body, malformed after", open + `<load_report_request/></soap:Body><junk></soap:Envelope>`, 400, "bad envelope"},
		{"truncated after undecoded body", open + `<load_report_request/>`, 400, "bad envelope"},
		{"wrong shape, malformed after", open + `<count><n>x</n></count></soap:Body><junk></soap:Envelope>`, 400, "bad envelope"},
		{"unknown element, malformed after", open + `<nope/></soap:Body><junk></soap:Envelope>`, 400, "bad envelope"},
		{"wrong shape", open + `<count><n>x</n></count>` + shut, 500, `strconv.ParseInt: parsing "x": invalid syntax`},
		{"undecoded body", open + `<load_report_request/>` + shut, 200, ""},
	} {
		resp, err := http.Post(srv.URL, ContentType, strings.NewReader(tc.doc))
		if err != nil {
			t.Fatal(err)
		}
		body := readAll(t, resp)
		var f *Fault
		errors.As(Unmarshal([]byte(body), &pingResp{}), &f)
		switch {
		case resp.StatusCode != tc.status:
			t.Errorf("%s: status %d, want %d (%s)", tc.name, resp.StatusCode, tc.status, body)
		case tc.fault == "" && f != nil:
			t.Errorf("%s: fault %+v", tc.name, f)
		case tc.fault == "":
		case f == nil:
			t.Errorf("%s: no fault in %s", tc.name, body)
		case tc.status == 400 && (f.Code != "soap:Client" || f.String != tc.fault):
			t.Errorf("%s: fault %+v, want soap:Client %q", tc.name, f, tc.fault)
		case tc.status == 500 && (f.Code != "soap:Server" || !strings.Contains(f.String, tc.fault)):
			t.Errorf("%s: fault %+v, want soap:Server %q", tc.name, f, tc.fault)
		}
	}
}

func TestClientBadEndpoint(t *testing.T) {
	c := Client{Endpoint: "http://127.0.0.1:1/nope"}
	var resp pingResp
	if err := c.Call(&pingReq{Message: "x"}, &resp); err == nil {
		t.Error("Call to dead endpoint succeeded")
	}
}

func TestHandleHTTPExactPath(t *testing.T) {
	mux := NewMux()
	mux.Handle("ping", func(decode func(any) error) (any, error) {
		var req pingReq
		if err := decode(&req); err != nil {
			return nil, err
		}
		return &pingResp{Echo: req.Message}, nil
	})
	mux.HandleHTTP("/metrics", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("metric_total 1\n"))
	}))
	srv := httptest.NewServer(mux)
	defer srv.Close()

	// Plain GET on the mounted path bypasses SOAP dispatch.
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body := readAll(t, resp)
	if resp.StatusCode != http.StatusOK || !strings.Contains(body, "metric_total 1") {
		t.Fatalf("GET /metrics = %d %q", resp.StatusCode, body)
	}

	// SOAP dispatch on other paths is untouched.
	c := &Client{Endpoint: srv.URL + "/"}
	var pr pingResp
	if err := c.Call(&pingReq{Message: "hi"}, &pr); err != nil {
		t.Fatalf("SOAP call after HandleHTTP: %v", err)
	}
	if pr.Echo != "hi" {
		t.Errorf("echo = %q", pr.Echo)
	}

	// Unmounted paths still fault on GET.
	resp2, err := http.Get(srv.URL + "/other")
	if err != nil {
		t.Fatal(err)
	}
	readAll(t, resp2)
	if resp2.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /other = %d, want 405", resp2.StatusCode)
	}
}

func TestHandleHTTPSubtree(t *testing.T) {
	mux := NewMux()
	mux.HandleHTTP("/debug/pprof/", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("pprof:" + r.URL.Path))
	}))
	mux.HandleHTTP("/debug/pprof/cmdline", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("cmdline"))
	}))
	srv := httptest.NewServer(mux)
	defer srv.Close()

	for _, tc := range []struct{ path, want string }{
		{"/debug/pprof/", "pprof:/debug/pprof/"},
		{"/debug/pprof/heap", "pprof:/debug/pprof/heap"},
		{"/debug/pprof/cmdline", "cmdline"}, // exact beats subtree
	} {
		resp, err := http.Get(srv.URL + tc.path)
		if err != nil {
			t.Fatal(err)
		}
		if body := readAll(t, resp); body != tc.want {
			t.Errorf("GET %s = %q, want %q", tc.path, body, tc.want)
		}
	}
}

func readAll(t *testing.T, resp *http.Response) string {
	t.Helper()
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// TestHandleHTTPMethodsOnExactMount: an exact mount owns EVERY method on
// its path — HEAD and POST route to the mounted handler, never to SOAP
// dispatch (a POST body on a mounted path must not be parsed as an
// envelope).
func TestHandleHTTPMethodsOnExactMount(t *testing.T) {
	mux := NewMux()
	mux.Handle("ping", func(func(any) error) (any, error) {
		return &pingResp{Echo: "soap"}, nil
	})
	mux.HandleHTTP("/hook", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("X-Handler", "hook")
		if r.Method != http.MethodHead {
			w.Write([]byte("hook:" + r.Method))
		}
	}))
	srv := httptest.NewServer(mux)
	defer srv.Close()

	// HEAD reaches the handler (a bare Mux would answer 405 SOAP-fault).
	resp, err := http.Head(srv.URL + "/hook")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Handler") != "hook" {
		t.Errorf("HEAD /hook = %d handler=%q, want 200 hook", resp.StatusCode, resp.Header.Get("X-Handler"))
	}

	// POST with a valid SOAP envelope still goes to the HTTP handler:
	// the mount bypasses envelope parsing entirely.
	envelope, err := Marshal(&pingReq{Message: "hi"})
	if err != nil {
		t.Fatal(err)
	}
	resp2, err := http.Post(srv.URL+"/hook", "text/xml", strings.NewReader(string(envelope)))
	if err != nil {
		t.Fatal(err)
	}
	if body := readAll(t, resp2); body != "hook:POST" {
		t.Errorf("POST /hook = %q, want %q", body, "hook:POST")
	}

	// SOAP POSTs on unmounted paths are still dispatched.
	c := &Client{Endpoint: srv.URL + "/"}
	var pr pingResp
	if err := c.Call(&pingReq{Message: "hi"}, &pr); err != nil || pr.Echo != "soap" {
		t.Errorf("SOAP beside exact mount: echo=%q err=%v", pr.Echo, err)
	}
}

// TestHandleHTTPSubtreeShadowsSOAP: a subtree mount captures SOAP-shaped
// POSTs under its prefix — mounting a subtree carves that URL space out
// of SOAP dispatch, which is exactly how the JSON API coexists with the
// SOAP endpoint on one listener.
func TestHandleHTTPSubtreeShadowsSOAP(t *testing.T) {
	mux := NewMux()
	mux.Handle("ping", func(func(any) error) (any, error) {
		return &pingResp{Echo: "soap"}, nil
	})
	mux.HandleHTTP("/api/", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("api:" + r.URL.Path))
	}))
	srv := httptest.NewServer(mux)
	defer srv.Close()

	// A SOAP envelope POSTed under the subtree lands in the HTTP
	// handler, not the ping dispatcher.
	envelope, err := Marshal(&pingReq{Message: "hi"})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(srv.URL+"/api/ping", "text/xml", strings.NewReader(string(envelope)))
	if err != nil {
		t.Fatal(err)
	}
	if body := readAll(t, resp); body != "api:/api/ping" {
		t.Errorf("POST under subtree = %q, want %q", body, "api:/api/ping")
	}

	// The subtree root itself is captured too.
	resp2, err := http.Get(srv.URL + "/api/")
	if err != nil {
		t.Fatal(err)
	}
	if body := readAll(t, resp2); body != "api:/api/" {
		t.Errorf("GET subtree root = %q, want %q", body, "api:/api/")
	}

	// Outside the subtree, SOAP dispatch is untouched.
	c := &Client{Endpoint: srv.URL + "/"}
	var pr pingResp
	if err := c.Call(&pingReq{Message: "hi"}, &pr); err != nil || pr.Echo != "soap" {
		t.Errorf("SOAP beside subtree mount: echo=%q err=%v", pr.Echo, err)
	}
}

// TestBodySizeLimit: a body over the 4 MiB limit is refused by name on
// both sides — the server answers 413 with a soap:Client fault, the
// client returns an error that is not a transport error — instead of
// being cut short and reported as a malformed envelope.
func TestBodySizeLimit(t *testing.T) {
	mux := NewMux()
	huge := strings.Repeat(" ", maxBody)
	for _, length := range []int64{-1, int64(len(huge) + 1)} {
		req := httptest.NewRequest(http.MethodPost, "/", strings.NewReader(huge+" "))
		req.ContentLength = length // -1: unknown, read until the limit trips
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, req)
		var f *Fault
		errors.As(Unmarshal(rec.Body.Bytes(), &pingResp{}), &f)
		if rec.Code != http.StatusRequestEntityTooLarge || f == nil || f.Code != "soap:Client" ||
			!strings.Contains(f.String, "4194304-byte limit") {
			t.Errorf("Content-Length %d: status %d, fault %+v", length, rec.Code, f)
		}
	}

	big := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(huge + " "))
	}))
	defer big.Close()
	c := Client{Endpoint: big.URL}
	err := c.Call(&pingReq{Message: "x"}, &pingResp{})
	if err == nil || errors.Is(err, ErrTransport) || !strings.Contains(err.Error(), "4194304-byte limit") {
		t.Errorf("oversized response: %v", err)
	}
}

// TestDecodeCopiesOut: a receive buffer is reused as soon as its envelope
// is read, so nothing decoded may point into it. Decode, overwrite the
// bytes with another message, decode again: the first value is unchanged.
func TestDecodeCopiesOut(t *testing.T) {
	orig := fuzzPayload{Attr: "a&amp", Message: "first\r\nmessage", N: 1, Text: "text"}
	first, err := Marshal(&orig)
	if err != nil {
		t.Fatal(err)
	}
	second, err := Marshal(&fuzzPayload{Attr: "b", Message: "second", N: 2, Text: "other"})
	if err != nil {
		t.Fatal(err)
	}
	buf := append(make([]byte, 0, len(first)+len(second)), first...)
	var v fuzzPayload
	if err := Unmarshal(buf, &v); err != nil {
		t.Fatal(err)
	}
	buf = append(buf[:0], second...)
	var w fuzzPayload
	if err := Unmarshal(buf, &w); err != nil {
		t.Fatal(err)
	}
	if v != orig || w.Message != "second" {
		t.Errorf("after reuse: first %+v (want %+v), second %+v", v, orig, w)
	}
}

type recursive struct {
	Next *recursive `xml:"next"`
}

// TestPlanRefusesOutsideSubset: a type whose tags fall outside the
// reader's subset has no plan, so decoding into it fails at once.
func TestPlanRefusesOutsideSubset(t *testing.T) {
	for _, v := range []any{
		&struct {
			X string `xml:",innerxml"`
		}{},
		&struct {
			X string `xml:",cdata"`
		}{},
		&struct {
			X []string `xml:"x"`
		}{},
		&struct {
			X int64 `xml:"x"`
		}{},
		&struct {
			X time.Time `xml:"x"`
		}{},
		&struct {
			X string `xml:"urn:x x"`
		}{},
		&struct {
			A string `xml:"a"`
			B string `xml:"a>b"`
		}{},
		&struct {
			N xml.Name `xml:"n"`
		}{},
		new(string),
		new(recursive),
		fuzzPayload{},
	} {
		if _, err := planFor(reflect.TypeOf(v)); err == nil {
			t.Errorf("%T: plan built", v)
		}
	}
	if _, err := planFor(reflect.TypeOf(&fuzzPayload{})); err != nil {
		t.Error(err)
	}
}
