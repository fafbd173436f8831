package httpapi_test

import (
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"gqosm/internal/core"
	"gqosm/internal/httpapi"
	"gqosm/internal/resource"
	"gqosm/internal/sim"
	"gqosm/internal/sla"
	"gqosm/internal/soapx"
)

// apiFixture is a broker with the JSON API mounted beside a SOAP mux on
// one httptest listener — the production topology in miniature.
func apiFixture(t *testing.T, intake bool) (*sim.Cluster, *httpapi.Client) {
	t.Helper()
	c, err := sim.NewCluster(sim.ClusterConfig{
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

// TestWireLifecycle drives request → accept → invoke → session →
// terminate entirely over the JSON transport, on both the direct and
// the intake-enabled broker.
func TestWireLifecycle(t *testing.T) {
	for _, intake := range []bool{false, true} {
		name := "direct"
		if intake {
			name = "intake"
		}
		t.Run(name, func(t *testing.T) {
			_, client := apiFixture(t, intake)

			offer, err := client.RequestService(wireRequest("wire-1"))
			if err != nil {
				t.Fatalf("RequestService: %v", err)
			}
			if offer.SLAID == "" || offer.Price <= 0 {
				t.Fatalf("implausible offer: %+v", offer)
			}
			id := sla.ID(offer.SLAID)
			if _, err := client.Act(id, "accept", ""); err != nil {
				t.Fatalf("accept: %v", err)
			}
			if detail, err := client.Act(id, "invoke", ""); err != nil || !strings.Contains(detail, "job") {
				t.Fatalf("invoke: detail=%q err=%v", detail, err)
			}
			sess, err := client.Session(id)
			if err != nil {
				t.Fatalf("session: %v", err)
			}
			if sess.SLAID != offer.SLAID || sess.Allocated.CPU != 2 {
				t.Errorf("session snapshot %+v does not match offer %+v", sess, offer)
			}
			if _, err := client.Act(id, "terminate", "done"); err != nil {
				t.Fatalf("terminate: %v", err)
			}
			// Terminal sessions linger in the working set until pruned;
			// the load report must still come back over the wire.
			load, err := client.LoadReport()
			if err != nil {
				t.Fatalf("load: %v", err)
			}
			if load.Domain == "" || load.Sessions != 1 {
				t.Errorf("implausible load report: %+v", load)
			}
		})
	}
}

// wireClient is the slice of a typed broker client the taxonomy test
// drives, so one table runs over both transports.
type wireClient struct {
	request    func(core.Request) (sla.ID, error)
	act        func(id sla.ID, action string) error
	bestEffort func(client string, amount resource.Capacity) error
}

func wireClients(url string) map[string]wireClient {
	js := httpapi.NewClient(url)
	soap := core.NewClient(url + "/")
	return map[string]wireClient{
		"json": {
			request: func(r core.Request) (sla.ID, error) {
				offer, err := js.RequestService(r)
				if err != nil {
					return "", err
				}
				return sla.ID(offer.SLAID), nil
			},
			act:        func(id sla.ID, action string) error { _, err := js.Act(id, action, ""); return err },
			bestEffort: func(c string, amount resource.Capacity) error { return js.BestEffort(c, amount, false) },
		},
		"soap": {
			request: func(r core.Request) (sla.ID, error) {
				offer, err := soap.RequestService(r)
				if err != nil {
					return "", err
				}
				return sla.ID(offer.SLA.SLAID), nil
			},
			act:        func(id sla.ID, action string) error { _, err := soap.Act(id, action, ""); return err },
			bestEffort: func(c string, amount resource.Capacity) error { return soap.BestEffort(c, amount, false) },
		},
	}
}

// TestWireErrorTaxonomy provokes every taxonomy row a live broker can be
// driven into through the real server, over JSON and over SOAP, and
// checks the client reconstructs the broker's sentinel — the table in
// core is one source for both. The broker runs with a depth-1 intake so
// intake_full is reachable; peer_unavailable needs a broker caught
// mid-Recover, which core's TestFederationRestartDuringFanout does over
// SOAP and TestErrorTaxonomyRoundTrip covers for the JSON codec.
func TestWireErrorTaxonomy(t *testing.T) {
	for _, tr := range []string{"json", "soap"} {
		t.Run(tr, func(t *testing.T) {
			c, err := sim.NewCluster(sim.ClusterConfig{
				Plan:   sim.DefaultParallelPlan(),
				Intake: core.IntakeConfig{Enabled: true, Depth: 1},
			})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(c.Close)
			mux := soapx.NewMux()
			c.Broker.Mount(mux)
			httpapi.NewServer(c.Broker).Mount(mux)
			srv := httptest.NewServer(mux)
			t.Cleanup(srv.Close)
			client := wireClients(srv.URL)[tr]
			want := func(row string, err, sentinel error) {
				t.Helper()
				if !errors.Is(err, sentinel) {
					t.Errorf("%s: %v, want %v", row, err, sentinel)
				}
			}

			want("unknown_session", client.act("no-such-session", "accept"), core.ErrUnknownSession)
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
			want("best_effort_full", client.bestEffort("hog", resource.Nodes(1000)), core.ErrBestEffortFull)

			// Double-accept lands in ErrBadState; a draining session
			// refuses termination with ErrHandoffPending.
			id, err := client.request(wireRequest("dup"))
			if err != nil {
				t.Fatal(err)
			}
			if err := client.act(id, "accept"); err != nil {
				t.Fatal(err)
			}
			want("bad_state", client.act(id, "accept"), core.ErrBadState)
			if _, err := c.Broker.BeginHandoff(id, "elsewhere"); err != nil {
				t.Fatal(err)
			}
			want("handoff_pending", client.act(id, "terminate"), core.ErrHandoffPending)

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
	c, err := sim.NewCluster(sim.ClusterConfig{Plan: sim.DefaultParallelPlan()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	mux := soapx.NewMux()
	c.Broker.Mount(mux)
	httpapi.NewServer(c.Broker).Mount(mux)
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)

	soapClient := &core.Client{SOAP: soapx.Client{Endpoint: srv.URL + "/"}}
	offer, err := soapClient.RequestService(wireRequest("soap-side"))
	if err != nil {
		t.Fatalf("SOAP RequestService beside JSON mount: %v", err)
	}
	jsonClient := httpapi.NewClient(srv.URL)
	sess, err := jsonClient.Session(sla.ID(offer.SLA.SLAID))
	if err != nil {
		t.Fatalf("JSON Session of SOAP-created session: %v", err)
	}
	if sess.SLAID != offer.SLA.SLAID {
		t.Errorf("cross-transport session mismatch: %q vs %q", sess.SLAID, offer.SLA.SLAID)
	}
}

// TestWirePolicies round-trips the policy registry over the JSON
// transport: active policy, shadow candidate, and the sorted registry
// listing qosctl prints.
func TestWirePolicies(t *testing.T) {
	c, err := sim.NewCluster(sim.ClusterConfig{
		Plan:         sim.DefaultParallelPlan(),
		Policy:       "revenue-greedy",
		ShadowPolicy: "upgrade-last",
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
	if rep.Active != "revenue-greedy" || rep.Shadow != "upgrade-last" {
		t.Errorf("policies = %+v", rep)
	}
	want := map[string]bool{"paper": true, "revenue-greedy": true, "upgrade-last": true}
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
