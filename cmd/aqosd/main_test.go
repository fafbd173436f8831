package main

import (
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"gqosm"
	"gqosm/internal/core"
	"gqosm/internal/sla"
)

// startDaemon serves the daemon's full HTTP surface (SOAP + /metrics +
// pprof + inspection pages) over httptest, exactly as run() would mount
// it on a real listener.
func startDaemon(t *testing.T) (*gqosm.Stack, string) {
	t.Helper()
	stack, err := gqosm.NewStack(gqosm.StackConfig{
		Domain: "site-a",
		Plan: gqosm.CapacityPlan{
			Guaranteed: gqosm.Capacity{CPU: 15, MemoryMB: 6144, DiskGB: 120},
			Adaptive:   gqosm.Capacity{CPU: 6, MemoryMB: 2048, DiskGB: 40},
			BestEffort: gqosm.Capacity{CPU: 5, MemoryMB: 2048, DiskGB: 40},
		},
		ConfirmWindow: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(stack.Close)
	srv := httptest.NewServer(newHandler(stack, nil))
	t.Cleanup(srv.Close)
	return stack, srv.URL
}

// scrape fetches url and returns the body.
func scrape(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s = %d", url, resp.StatusCode)
	}
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// metricValue extracts the sample value of the exposition line that
// starts exactly with series (name plus rendered labels), or -1.
func metricValue(t *testing.T, text, series string) float64 {
	t.Helper()
	for _, line := range strings.Split(text, "\n") {
		if !strings.HasPrefix(line, series+" ") {
			continue
		}
		v, err := strconv.ParseFloat(strings.Fields(line)[1], 64)
		if err != nil {
			t.Fatalf("bad sample line %q: %v", line, err)
		}
		return v
	}
	return -1
}

// TestMetricsEndToEnd drives one full SLA lifecycle over SOAP and
// asserts the /metrics exposition reflects it: the admission histogram
// observed the request, the lifecycle counters advanced by exactly the
// performed transitions, and the partition utilization gauges moved.
func TestMetricsEndToEnd(t *testing.T) {
	_, url := startDaemon(t)
	client := core.NewClient(url + "/")

	before := scrape(t, url+"/metrics")
	if !strings.Contains(before, "# TYPE gqosm_broker_admission_seconds histogram") {
		t.Fatalf("exposition lacks admission histogram type line:\n%s", before)
	}
	if got := metricValue(t, before, `gqosm_partition_utilization{pool="guaranteed",dim="cpu"}`); got != 0 {
		t.Fatalf("guaranteed cpu utilization before = %v, want 0", got)
	}

	now := time.Now()
	offer, err := client.RequestService(core.Request{
		Service: "simulation",
		Client:  "e2e",
		Class:   sla.ClassGuaranteed,
		Spec:    gqosm.NewSpec(gqosm.Exact(gqosm.CPU, 5)),
		Start:   now,
		End:     now.Add(time.Hour),
	})
	if err != nil {
		t.Fatal(err)
	}
	id := sla.ID(offer.SLA.SLAID)
	for _, action := range []string{"accept", "invoke"} {
		if _, err := client.Act(id, action, ""); err != nil {
			t.Fatalf("%s: %v", action, err)
		}
	}

	mid := scrape(t, url+"/metrics")
	if got := metricValue(t, mid, "gqosm_broker_admission_seconds_count"); got < 1 {
		t.Errorf("admission histogram count = %v, want >= 1", got)
	}
	for _, series := range []string{
		`gqosm_broker_lifecycle_total{event="request"}`,
		`gqosm_broker_lifecycle_total{event="accept"}`,
	} {
		if got := metricValue(t, mid, series); got != 1 {
			t.Errorf("%s = %v, want 1", series, got)
		}
	}
	util := metricValue(t, mid, `gqosm_partition_utilization{pool="guaranteed",dim="cpu"}`)
	if want := 5.0 / 15.0; util < want-0.01 || util > want+0.01 {
		t.Errorf("guaranteed cpu utilization = %v, want ~%v", util, want)
	}
	if got := metricValue(t, mid, `gqosm_broker_sessions{state="active"}`); got != 1 {
		t.Errorf("active sessions gauge = %v, want 1", got)
	}

	if _, err := client.Act(id, "terminate", "e2e done"); err != nil {
		t.Fatal(err)
	}
	after := scrape(t, url+"/metrics")
	if got := metricValue(t, after, `gqosm_broker_lifecycle_total{event="terminate"}`); got != 1 {
		t.Errorf("terminate counter = %v, want 1", got)
	}
	if got := metricValue(t, after, `gqosm_partition_utilization{pool="guaranteed",dim="cpu"}`); got != 0 {
		t.Errorf("guaranteed cpu utilization after teardown = %v, want 0", got)
	}
	if got := metricValue(t, after, "gqosm_broker_teardown_seconds_count"); got < 1 {
		t.Errorf("teardown histogram count = %v, want >= 1", got)
	}
}

// TestProfilerMounted confirms the pprof family answers next to the SOAP
// endpoints.
func TestProfilerMounted(t *testing.T) {
	_, url := startDaemon(t)
	if body := scrape(t, url+"/debug/pprof/cmdline"); body == "" {
		t.Error("empty pprof cmdline response")
	}
	if body := scrape(t, url+"/debug/pprof/"); !strings.Contains(body, "goroutine") {
		t.Errorf("pprof index lacks goroutine profile: %q", body)
	}
}

// TestPeerForwardingOnBothWires: a daemon built with one -peer whose home
// domain cannot serve forwards the admission to the neighbor whichever
// wire it arrived on — federation is installed on the request operation,
// not on a transport — and both offers name the serving domain. When the
// neighbor cannot serve either, the refusal is the typed no_domain.
func TestPeerForwardingOnBothWires(t *testing.T) {
	_, neighbor := startDaemon(t) // domain site-a, C_G = 15
	home, err := gqosm.NewStack(gqosm.StackConfig{
		Domain: "site-small",
		Plan: gqosm.CapacityPlan{
			Guaranteed: gqosm.Capacity{CPU: 2, MemoryMB: 1024, DiskGB: 20},
			Adaptive:   gqosm.Capacity{CPU: 1, MemoryMB: 512, DiskGB: 10},
			BestEffort: gqosm.Capacity{CPU: 1, MemoryMB: 512, DiskGB: 10},
		},
		ConfirmWindow: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(home.Close)
	srv := httptest.NewServer(newHandler(home, peerFlags{{"site-a", neighbor}}))
	t.Cleanup(srv.Close)

	now := time.Now()
	request := func(cpu float64) core.Request {
		return core.Request{
			Service: "simulation",
			Client:  "fed",
			Class:   sla.ClassGuaranteed,
			Spec:    gqosm.NewSpec(gqosm.Exact(gqosm.CPU, cpu)),
			Start:   now,
			End:     now.Add(time.Hour),
		}
	}
	soap, js := core.NewClient(srv.URL+"/"), gqosm.NewJSONBrokerClient(srv.URL)

	soapOffer, err := soap.RequestService(request(5))
	if err != nil {
		t.Fatalf("SOAP request past the home domain: %v", err)
	}
	if soapOffer.Domain != "site-a" {
		t.Errorf("SOAP offer domain = %q, want site-a", soapOffer.Domain)
	}
	jsonOffer, err := js.RequestService(request(5))
	if err != nil {
		t.Fatalf("JSON request past the home domain: %v", err)
	}
	if jsonOffer.Domain != "site-a" || !strings.HasPrefix(jsonOffer.SLAID, "site-a-sla-") {
		t.Errorf("JSON offer = %+v, want one held by site-a", jsonOffer)
	}
	if got := len(home.Broker.Sessions(nil)); got != 0 {
		t.Errorf("home broker holds %d sessions, want 0", got)
	}

	// What the home domain can serve stays home, and says so.
	if jsonOffer, err = js.RequestService(request(1)); err != nil || jsonOffer.Domain != "site-small" {
		t.Errorf("home-served JSON offer = %+v, %v", jsonOffer, err)
	}

	if _, err := soap.RequestService(request(100)); !errors.Is(err, core.ErrNoDomainCanServe) {
		t.Errorf("SOAP request nobody can serve: %v, want ErrNoDomainCanServe", err)
	}
	if _, err := js.RequestService(request(100)); !errors.Is(err, core.ErrNoDomainCanServe) {
		t.Errorf("JSON request nobody can serve: %v, want ErrNoDomainCanServe", err)
	}
}

// TestTransportMetricsUnified drives the same lifecycle over SOAP and
// over JSON and reads /metrics: both transports report the operation
// table's op vocabulary with the same counts, and a refused request is
// an error on either wire.
func TestTransportMetricsUnified(t *testing.T) {
	_, url := startDaemon(t)
	soap, js := core.NewClient(url+"/"), gqosm.NewJSONBrokerClient(url)
	now := time.Now()
	req := core.Request{
		Service: "simulation",
		Client:  "metrics",
		Class:   sla.ClassGuaranteed,
		Spec:    gqosm.NewSpec(gqosm.Exact(gqosm.CPU, 2)),
		Start:   now,
		End:     now.Add(time.Hour),
	}
	type actor interface {
		Act(id sla.ID, action, reason string) (string, error)
	}
	lifecycle := func(c actor, id sla.ID) {
		t.Helper()
		for _, action := range []string{"accept", "invoke", "terminate"} {
			if _, err := c.Act(id, action, ""); err != nil {
				t.Fatalf("%s: %v", action, err)
			}
		}
		if _, err := c.Act("no-such-session", "accept", ""); !errors.Is(err, core.ErrUnknownSession) {
			t.Fatalf("accept of unknown session: %v", err)
		}
	}
	soapOffer, err := soap.RequestService(req)
	if err != nil {
		t.Fatal(err)
	}
	lifecycle(soap, sla.ID(soapOffer.SLA.SLAID))
	jsonOffer, err := js.RequestService(req)
	if err != nil {
		t.Fatal(err)
	}
	lifecycle(js, sla.ID(jsonOffer.SLAID))

	text := scrape(t, url+"/metrics")
	for _, op := range core.Ops {
		want := map[string]float64{"request": 1, "accept": 2, "invoke": 1, "terminate": 1}[op.Name]
		for _, transport := range []string{"soap", "http"} {
			series := `gqosm_transport_requests_total{transport="` + transport + `",op="` + op.Name + `"}`
			if got := metricValue(t, text, series); got != want {
				t.Errorf("%s = %v, want %v", series, got, want)
			}
		}
	}
	for _, transport := range []string{"soap", "http"} {
		series := `gqosm_transport_errors_total{transport="` + transport + `"}`
		if got := metricValue(t, text, series); got != 1 {
			t.Errorf("%s = %v, want 1", series, got)
		}
	}
	if n := strings.Count(text, "gqosm_transport_requests_total{"); n != 2*len(core.Ops) {
		t.Errorf("%d transport request series, want %d (one per op and transport)", n, 2*len(core.Ops))
	}
}

// TestUnreadFlagRefused: a flag the selected configuration does not read
// fails the run before anything starts, instead of being parsed and
// dropped. The listen address is unusable so that a command line the rule
// lets through fails at the listener, not here.
func TestUnreadFlagRefused(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string // "" for a command line the rule accepts
	}{
		{[]string{"-total", "26", "-guaranteed", "15"}, "-guaranteed is not read with -total"},
		{[]string{"-total", "26", "-adaptive", "6", "-besteffort", "5"}, "-adaptive is not read with -total"},
		{[]string{"-guaranteed", "15", "-failure-rate", "0.3"}, "-failure-rate is read only with -total"},
		{[]string{"-guaranteed", "15", "-besteffort-frac", "0.1"}, "-besteffort-frac is read only with -total"},
		{[]string{"-total", "26", "-intake"}, "flag provided but not defined: -intake"},
		{[]string{"-total", "26", "-fault-seed", "9"}, "-fault-seed is read only with -fault-rate"},
		{[]string{"-total", "26", "-failure-rate", "0.3", "-besteffort-frac", "0.1"}, ""},
	} {
		err := run(append(tc.args, "-listen", "127.0.0.1:-1", "-monitor-interval", "0"))
		switch {
		case err == nil:
			t.Errorf("%v: run returned nil", tc.args)
		case tc.want == "" && strings.Contains(err.Error(), "read"):
			t.Errorf("%v: refused a flag the run reads: %v", tc.args, err)
		case tc.want != "" && !strings.Contains(err.Error(), tc.want):
			t.Errorf("%v: err = %v, want %q", tc.args, err, tc.want)
		}
	}
}

// TestPlanOutOfRangeRefused: a plan component that is not finite, or
// that reaches 2^52, fails the run before the broker starts. The listen
// address is unusable so that a plan the check lets through fails at the
// listener, not here.
func TestPlanOutOfRangeRefused(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string // "" for a plan the check accepts
	}{
		{[]string{"-guaranteed", "10", "-adaptive", "2", "-besteffort", "2", "-memory", "inf"}, "memory-mb=+Inf is not finite"},
		{[]string{"-guaranteed", "10", "-memory", "1e300"}, "memory-mb=1e+300 is not finite and below 2^52"},
		{[]string{"-guaranteed", "10", "-memory", "1e15"}, ""},
	} {
		err := run(append(tc.args, "-listen", "127.0.0.1:-1", "-monitor-interval", "0"))
		switch {
		case err == nil:
			t.Errorf("%v: run returned nil", tc.args)
		case tc.want == "" && strings.Contains(err.Error(), "capacity plan"):
			t.Errorf("%v: refused a plan in range: %v", tc.args, err)
		case tc.want != "" && !strings.Contains(err.Error(), tc.want):
			t.Errorf("%v: err = %v, want %q", tc.args, err, tc.want)
		}
	}
}
