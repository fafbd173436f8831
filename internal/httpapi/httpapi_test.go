package httpapi_test

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"
	"time"

	"gqosm/internal/core"
	"gqosm/internal/httpapi"
	"gqosm/internal/resource"
	"gqosm/internal/sim"
	"gqosm/internal/sla"
	"gqosm/internal/soapx"
	"gqosm/internal/stack"
	"gqosm/internal/xmlmsg"
)

// apiFixture is a broker with the JSON API mounted beside a SOAP mux on
// one httptest listener — the production topology in miniature.
func apiFixture(t *testing.T, intake bool) (*sim.Cluster, *httpapi.Client) {
	t.Helper()
	c, err := sim.NewCluster(stack.Config{
		Plan:   sim.DefaultParallelPlan(),
		Intake: core.IntakeConfig{Enabled: intake},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	mux := soapx.NewMux()
	httpapi.NewServer(c.Broker).Mount(mux)
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return c, httpapi.NewClient(srv.URL)
}

func wireRequest(client string) core.Request {
	return core.Request{
		Service: "simulation",
		Client:  client,
		Class:   sla.ClassGuaranteed,
		Spec:    sla.NewSpec(sla.Exact(resource.CPU, 2)),
		Start:   sim.Epoch,
		End:     sim.Epoch.Add(time.Hour),
	}
}

// wire is what the SOAP and the JSON client have in common; request
// adapts the one method whose reply type is the wire's own.
type wire interface {
	Act(id sla.ID, action, reason string) (string, error)
	Renegotiate(id sla.ID, spec sla.Spec) (string, error)
	BestEffort(client string, amount resource.Capacity, release bool) error
	LoadReport() (core.LoadReport, error)
}

type wireClient struct {
	wire
	request func(core.Request) (sla.ID, error)
}

func wireClients(url string) map[string]wireClient {
	js := httpapi.NewClient(url)
	soap := core.NewClient(url + "/")
	return map[string]wireClient{
		"json": {js, func(r core.Request) (sla.ID, error) {
			offer, err := js.RequestService(r)
			if err != nil {
				return "", err
			}
			return sla.ID(offer.SLAID), nil
		}},
		"soap": {soap, func(r core.Request) (sla.ID, error) {
			offer, err := soap.RequestService(r)
			if err != nil {
				return "", err
			}
			return sla.ID(offer.SLA.SLAID), nil
		}},
	}
}

// bothWires serves the broker over SOAP and JSON on one listener — the
// production topology in miniature.
func bothWires(t *testing.T, b *core.Broker) string {
	t.Helper()
	mux := soapx.NewMux()
	b.Mount(mux)
	httpapi.NewServer(b).Mount(mux)
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv.URL
}

// lifecycleSteps walks the operation table the way a client does. Each
// step names its row, the session it addresses, and the outcome every
// transport must produce: the sentinel, the session's state afterwards
// and the ack detail (a regexp; job and pid numbers are the broker's).
var lifecycleSteps = []struct {
	op, sess string
	err      error
	state    sla.State
	detail   string
}{
	{"request", "a", nil, sla.StateProposed, ""},
	{"accept", "a", nil, sla.StateEstablished, "^$"},
	{"accept", "a", core.ErrBadState, sla.StateEstablished, ""},
	{"invoke", "a", nil, sla.StateActive, `^job \S+ pid \d+$`},
	{"renegotiate", "a", nil, sla.StateActive, `^reallocated .*cpu=2.* -> .*cpu=3.*, price \+\d+\.\d\d$`},
	{"accept_promotion", "a", core.ErrUnknownSession, sla.StateActive, ""}, // no open promotion
	{"terminate", "a", nil, sla.StateTerminated, "^$"},
	{"terminate", "a", core.ErrBadState, sla.StateTerminated, ""},
	{"request", "b", nil, sla.StateProposed, ""},
	{"reject", "b", nil, sla.StateTerminated, "^$"},
	{"accept", "ghost", core.ErrUnknownSession, 0, ""},
	{"best-effort", "grant", nil, 0, ""},
	{"best-effort", "hog", core.ErrBestEffortFull, 0, ""},
	{"best-effort", "release", nil, 0, ""},
	{"load", "", nil, 0, `^site-a 2$`},
}

// TestWireLifecycle walks lifecycleSteps over SOAP and over JSON, each
// against a fresh identically configured broker (direct and
// intake-enabled), and requires the outcomes the table states — so the
// two wires agree on state, ack detail and sentinel at every step. The
// rows only one wire carries (verify; session, policies) are pinned by
// the binding tests.
func TestWireLifecycle(t *testing.T) {
	for _, mode := range []string{"direct", "intake"} {
		t.Run(mode, func(t *testing.T) {
			for _, tr := range []string{"soap", "json"} {
				t.Run(tr, func(t *testing.T) { walkLifecycle(t, mode == "intake", tr) })
			}
		})
	}
}

// bestEffortCPU sums the CPU best-effort users hold across the pools.
func bestEffortCPU(b *core.Broker) (cpu float64) {
	for _, u := range b.Allocator().Snapshot() {
		cpu += u.BestEffort.CPU
	}
	return cpu
}

func walkLifecycle(t *testing.T, intake bool, transport string) {
	c, err := sim.NewCluster(stack.Config{
		Plan:   sim.DefaultParallelPlan(),
		Intake: core.IntakeConfig{Enabled: intake},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	w := wireClients(bothWires(t, c.Broker))[transport]

	ids := map[string]sla.ID{"ghost": "no-such-session"}
	for i, st := range lifecycleSteps {
		id := ids[st.sess]
		var detail string
		switch st.op {
		case "request":
			id, err = w.request(wireRequest("wire-" + st.sess))
			ids[st.sess] = id
		case "renegotiate":
			detail, err = w.Renegotiate(id, sla.NewSpec(sla.Exact(resource.CPU, 3)))
		case "best-effort":
			amount := resource.Nodes(4)
			if st.sess == "hog" {
				amount = resource.Nodes(1000)
			}
			err = w.BestEffort("student", amount, st.sess == "release")
		case "load":
			var load core.LoadReport
			load, err = w.LoadReport()
			detail = fmt.Sprintf("%s %d", load.Domain, load.Sessions)
		default:
			detail, err = w.Act(id, st.op, "")
		}
		if !errors.Is(err, st.err) {
			t.Fatalf("step %d %s(%s): err = %v, want %v", i, st.op, st.sess, err, st.err)
		}
		if st.detail != "" && !regexp.MustCompile(st.detail).MatchString(detail) {
			t.Errorf("step %d %s(%s): detail %q does not match %s", i, st.op, st.sess, detail, st.detail)
		}
		if st.state != 0 {
			if doc, err := c.Broker.Session(id); err != nil || doc.State != st.state {
				t.Errorf("step %d %s(%s): session %v, %v; want state %s", i, st.op, st.sess, doc, err, st.state)
			}
		}
		if st.sess == "grant" {
			if got := bestEffortCPU(c.Broker); got != 4 {
				t.Errorf("step %d: best-effort users hold %g CPU, want 4", i, got)
			}
		}
	}

	// What the steps left behind: the rejected offer and the terminated
	// session hold nothing, best-effort capacity went back, and the
	// default terminate reason was applied — by the table, once.
	if got := c.Pool.InUse(sim.Epoch).CPU; got != 0 {
		t.Errorf("pool holds %g CPU after reject and terminate", got)
	}
	if got := bestEffortCPU(c.Broker); got != 0 {
		t.Errorf("best-effort users still hold %g CPU after release", got)
	}
	reasons := 0
	for _, e := range c.Broker.Events() {
		if e.Kind == "clearing" && strings.Contains(e.Msg, "terminated by client") {
			reasons++
		}
	}
	if reasons != 1 {
		t.Errorf("%d clearing events carry the default terminate reason, want 1", reasons)
	}
}

// TestBestEffortAckAgrees reads the best-effort acknowledgement below the
// typed clients (which drop it): the grant detail is the table's, so the
// two wires carry the same one.
func TestBestEffortAckAgrees(t *testing.T) {
	c, err := sim.NewCluster(stack.Config{Plan: sim.DefaultParallelPlan()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	url := bothWires(t, c.Broker)

	var soapAck xmlmsg.AckXML
	sc := soapx.Client{Endpoint: url + "/"}
	if err := sc.Call(&xmlmsg.BestEffortRequestXML{Client: "s", CPU: 2}, &soapAck); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+httpapi.Prefix+"best-effort", "application/json",
		strings.NewReader(`{"client":"j","cpu":2}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var jsonAck httpapi.AckJSON
	if err := json.NewDecoder(resp.Body).Decode(&jsonAck); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(soapAck.Detail, "granted ") || jsonAck.Detail != soapAck.Detail {
		t.Errorf("best-effort ack: soap %q, json %q", soapAck.Detail, jsonAck.Detail)
	}
}

// TestWireErrorTaxonomy provokes every taxonomy row a live broker can be
// driven into through the real server, over JSON and over SOAP, and
// checks the client reconstructs the broker's sentinel — the table in
// core is one source for both. The broker runs with a depth-1 intake so
// intake_full is reachable, and no_domain comes from a second, federated
// broker; peer_unavailable needs a broker caught
// mid-Recover, which core's TestFederationRestartDuringFanout does over
// SOAP and TestErrorTaxonomyRoundTrip covers for the JSON codec.
func TestWireErrorTaxonomy(t *testing.T) {
	for _, tr := range []string{"json", "soap"} {
		t.Run(tr, func(t *testing.T) {
			c, err := sim.NewCluster(stack.Config{
				Plan:   sim.DefaultParallelPlan(),
				Intake: core.IntakeConfig{Enabled: true, Depth: 1},
			})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(c.Close)
			client := wireClients(bothWires(t, c.Broker))[tr]
			act := func(id sla.ID, action string) error { _, err := client.Act(id, action, ""); return err }
			want := func(row string, err, sentinel error) {
				t.Helper()
				if !errors.Is(err, sentinel) {
					t.Errorf("%s: %v, want %v", row, err, sentinel)
				}
			}

			want("unknown_session", act("no-such-session", "accept"), core.ErrUnknownSession)
			req := wireRequest("broke")
			req.Budget = 0.000001
			_, err = client.request(req)
			want("over_budget", err, core.ErrOverBudget)
			req = wireRequest("lost")
			req.Service = "no-such-service"
			_, err = client.request(req)
			want("no_service", err, core.ErrNoService)
			req = wireRequest("greedy")
			req.Spec = sla.NewSpec(sla.Exact(resource.CPU, 16)) // C_G is 15
			_, err = client.request(req)
			want("cannot_honor", err, core.ErrCannotHonor)
			want("best_effort_full", client.BestEffort("hog", resource.Nodes(1000), false), core.ErrBestEffortFull)

			// Double-accept lands in ErrBadState; a draining session
			// refuses termination with ErrHandoffPending.
			id, err := client.request(wireRequest("dup"))
			if err != nil {
				t.Fatal(err)
			}
			if err := act(id, "accept"); err != nil {
				t.Fatal(err)
			}
			want("bad_state", act(id, "accept"), core.ErrBadState)
			if _, err := c.Broker.BeginHandoff(id, "elsewhere"); err != nil {
				t.Fatal(err)
			}
			want("handoff_pending", act(id, "terminate"), core.ErrHandoffPending)

			// One admission parked in the depth-1 queue: the next is
			// refused with backpressure, on SOAP as on JSON.
			parked, err := c.Broker.Submit(wireRequest("parked"))
			if err != nil {
				t.Fatal(err)
			}
			_, err = client.request(wireRequest("pushed-back"))
			want("intake_full", err, core.ErrIntakeFull)
			c.Broker.FlushIntake()
			if _, err := parked.Wait(); err != nil {
				t.Fatal(err)
			}

			c.Broker.Close()
			_, err = client.request(wireRequest("late"))
			want("closed", err, core.ErrClosed)

			// A federated broker (here with no neighbor to turn to)
			// answers what its domain cannot serve with no_domain.
			lone, err := sim.NewCluster(stack.Config{Plan: sim.DefaultParallelPlan()})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(lone.Close)
			mux := soapx.NewMux()
			core.NewFederation(lone.Broker).Mount(mux)
			httpapi.NewServer(lone.Broker).Mount(mux)
			srv := httptest.NewServer(mux)
			t.Cleanup(srv.Close)
			req = wireRequest("nowhere")
			req.Service = "no-such-service"
			_, err = wireClients(srv.URL)[tr].request(req)
			want("no_domain", err, core.ErrNoDomainCanServe)
		})
	}
}

// TestWireMalformedRequests exercises the rows below the broker:
// unparseable JSON, missing IDs, wrong method, unknown endpoint.
func TestWireMalformedRequests(t *testing.T) {
	_, client := apiFixture(t, false)
	base := client.Endpoint + httpapi.Prefix

	post := func(path, body string) *http.Response {
		t.Helper()
		resp, err := http.Post(base+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { resp.Body.Close() })
		return resp
	}
	if resp := post("request", "{not json"); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad JSON = %d, want 400", resp.StatusCode)
	}
	if resp := post("accept", `{}`); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("missing id = %d, want 400", resp.StatusCode)
	}
	resp, err := http.Get(base + "request")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed || resp.Header.Get("Allow") != http.MethodPost {
		t.Errorf("GET request = %d Allow=%q, want 405 Allow=POST", resp.StatusCode, resp.Header.Get("Allow"))
	}
	if resp := post("frobnicate", `{}`); resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown endpoint = %d, want 404", resp.StatusCode)
	}
}

// TestMountBesideSOAP: one listener, both transports — the JSON subtree
// must not shadow SOAP dispatch at the root, and vice versa.
func TestMountBesideSOAP(t *testing.T) {
	c, err := sim.NewCluster(stack.Config{Plan: sim.DefaultParallelPlan()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	url := bothWires(t, c.Broker)

	offer, err := core.NewClient(url + "/").RequestService(wireRequest("soap-side"))
	if err != nil {
		t.Fatalf("SOAP RequestService beside JSON mount: %v", err)
	}
	resp, err := http.Get(url + "/api/v1/session?id=" + offer.SLA.SLAID)
	if err != nil {
		t.Fatalf("JSON session of SOAP-created session: %v", err)
	}
	defer resp.Body.Close()
	var sess httpapi.OfferJSON
	if err := json.NewDecoder(resp.Body).Decode(&sess); err != nil {
		t.Fatalf("JSON session of SOAP-created session: %v", err)
	}
	if sess.SLAID != offer.SLA.SLAID || sess.State != "proposed" || sess.Allocated.CPU != 2 {
		t.Errorf("JSON snapshot %+v does not match the SOAP offer %q", sess, offer.SLA.SLAID)
	}
}

// TestWirePolicies round-trips the policy registry over the JSON
// transport: active policy, shadow candidate, and the sorted registry
// listing qosctl prints.
func TestWirePolicies(t *testing.T) {
	c, err := sim.NewCluster(stack.Config{
		Plan:         sim.DefaultParallelPlan(),
		Policy:       "revenue-greedy",
		ShadowPolicy: "paper",
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	mux := soapx.NewMux()
	httpapi.NewServer(c.Broker).Mount(mux)
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	client := httpapi.NewClient(srv.URL)

	rep, err := client.Policies()
	if err != nil {
		t.Fatalf("Policies: %v", err)
	}
	if rep.Active != "revenue-greedy" || rep.Shadow != "paper" {
		t.Errorf("policies = %+v", rep)
	}
	want := map[string]bool{"paper": true, "revenue-greedy": true}
	for _, name := range rep.Policies {
		delete(want, name)
	}
	if len(want) != 0 {
		t.Errorf("registry listing %v is missing %v", rep.Policies, want)
	}

	// The endpoint is GET-only.
	resp, err := http.Post(srv.URL+httpapi.Prefix+"policies", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST policies status = %d, want 405", resp.StatusCode)
	}
}
