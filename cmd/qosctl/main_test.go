package main

import (
	"io"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"gqosm"
	"gqosm/internal/sla"
)

// startBroker serves a full in-process AQoS stack over SOAP/HTTP. The
// stack runs on the real clock because qosctl stamps requests with
// time.Now().
func startBroker(t *testing.T) (*gqosm.Stack, string) {
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
	srv := httptest.NewServer(stack.Mount())
	t.Cleanup(srv.Close)
	return stack, srv.URL
}

// runCapture runs the CLI entry point and returns its stdout.
func runCapture(t *testing.T, args ...string) (string, error) {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	orig := os.Stdout
	os.Stdout = w
	runErr := run(args)
	os.Stdout = orig
	w.Close()
	out, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	return string(out), runErr
}

func TestRunArgumentErrors(t *testing.T) {
	for name, args := range map[string][]string{
		"no-subcommand":      {},
		"unknown-subcommand": {"defragment"},
		"accept-without-sla": {"accept"},
		"verify-without-sla": {"verify"},
		"reneg-without-sla":  {"renegotiate", "-cpu", "4"},
		"request-bad-class":  {"request", "-class", "platinum", "-cpu", "2"},
		"request-bad-flag":   {"request", "-no-such-flag"},
		"terminate-bad-flag": {"terminate", "-sla"},
		"global-bad-flag":    {"-no-such-global", "request"},
	} {
		t.Run(name, func(t *testing.T) {
			if _, err := runCapture(t, args...); err == nil {
				t.Fatalf("args %v: expected error", args)
			}
		})
	}
}

// latestSLA returns the most recently proposed/established SLA ID.
func latestSLA(t *testing.T, stack *gqosm.Stack) string {
	t.Helper()
	docs := stack.Broker.Sessions(nil)
	if len(docs) == 0 {
		t.Fatal("no sessions on the broker")
	}
	return string(docs[len(docs)-1].ID)
}

func TestRequestLifecycleEndToEnd(t *testing.T) {
	stack, url := startBroker(t)

	out, err := runCapture(t, "-broker", url, "request",
		"-service", "simulation", "-client", "e2e",
		"-class", "guaranteed", "-cpu", "4", "-memory", "512", "-disk", "10",
		"-hours", "2")
	if err != nil {
		t.Fatalf("request: %v", err)
	}
	if !strings.Contains(out, "offer: SLA site-a-sla-") {
		t.Fatalf("request output: %q", out)
	}
	id := latestSLA(t, stack)

	out, err = runCapture(t, "-broker", url, "accept", "-sla", id)
	if err != nil {
		t.Fatalf("accept: %v", err)
	}
	if !strings.Contains(out, "accept: ok") {
		t.Fatalf("accept output: %q", out)
	}

	out, err = runCapture(t, "-broker", url, "invoke", "-sla", id)
	if err != nil {
		t.Fatalf("invoke: %v", err)
	}
	if !strings.Contains(out, "invoke: ok") {
		t.Fatalf("invoke output: %q", out)
	}

	out, err = runCapture(t, "-broker", url, "verify", "-sla", id)
	if err != nil {
		t.Fatalf("verify: %v", err)
	}
	if !strings.Contains(out, "QoS_Levels") {
		t.Fatalf("verify output: %q", out)
	}

	out, err = runCapture(t, "-broker", url, "renegotiate", "-sla", id, "-cpu", "6")
	if err != nil {
		t.Fatalf("renegotiate: %v", err)
	}
	if !strings.Contains(out, "renegotiated:") {
		t.Fatalf("renegotiate output: %q", out)
	}

	out, err = runCapture(t, "-broker", url, "terminate", "-sla", id, "-reason", "done")
	if err != nil {
		t.Fatalf("terminate: %v", err)
	}
	if !strings.Contains(out, "terminate: ok") {
		t.Fatalf("terminate output: %q", out)
	}
	doc, err := stack.Broker.Session(sla.ID(id))
	if err != nil {
		t.Fatal(err)
	}
	if !doc.State.Terminal() {
		t.Fatalf("session state %s after terminate", doc.State)
	}
}

func TestRejectEndToEnd(t *testing.T) {
	stack, url := startBroker(t)
	if _, err := runCapture(t, "-broker", url, "request", "-cpu", "2"); err != nil {
		t.Fatal(err)
	}
	id := latestSLA(t, stack)
	out, err := runCapture(t, "-broker", url, "reject", "-sla", id)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "reject: ok") {
		t.Fatalf("reject output: %q", out)
	}
}

func TestBestEffortEndToEnd(t *testing.T) {
	_, url := startBroker(t)
	out, err := runCapture(t, "-broker", url, "besteffort", "-client", "be-e2e", "-cpu", "2")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "granted") {
		t.Fatalf("besteffort output: %q", out)
	}
	out, err = runCapture(t, "-broker", url, "besteffort", "-client", "be-e2e", "-release")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "released") {
		t.Fatalf("release output: %q", out)
	}
}

// TestActionAgainstUnknownSLA checks that server-side faults surface as
// CLI errors.
func TestActionAgainstUnknownSLA(t *testing.T) {
	_, url := startBroker(t)
	if _, err := runCapture(t, "-broker", url, "accept", "-sla", "site-a-sla-9999"); err == nil {
		t.Fatal("accept of unknown SLA succeeded")
	}
}

// TestMetricsEndToEnd fetches the broker's Prometheus exposition through
// the metrics subcommand after one admission.
func TestMetricsEndToEnd(t *testing.T) {
	stack, url := startBroker(t)
	out, err := runCapture(t, "-broker", url, "request", "-class", "guaranteed", "-cpu", "2")
	if err != nil {
		t.Fatalf("request: %v\n%s", err, out)
	}
	if len(stack.Broker.Sessions(nil)) == 0 {
		t.Fatal("no session proposed")
	}

	out, err = runCapture(t, "-broker", url, "metrics")
	if err != nil {
		t.Fatalf("metrics: %v\n%s", err, out)
	}
	for _, want := range []string{
		"# TYPE gqosm_broker_admission_seconds histogram",
		`gqosm_broker_lifecycle_total{event="request"} 1`,
		"gqosm_partition_utilization",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics output missing %q:\n%s", want, out)
		}
	}
}

func TestMetricsAgainstDeadBroker(t *testing.T) {
	if _, err := runCapture(t, "-broker", "http://127.0.0.1:1", "metrics"); err == nil {
		t.Fatal("expected connection error")
	}
}

// TestLoadSubcommand walks a two-instance deployment with -endpoints:
// each broker answers the load_report round trip the cluster front tier
// places on.
func TestLoadSubcommand(t *testing.T) {
	_, url1 := startBroker(t)
	_, url2 := startBroker(t)
	out, err := runCapture(t, "load", "-endpoints", url1+","+url2)
	if err != nil {
		t.Fatalf("load: %v\n%s", err, out)
	}
	if got := strings.Count(out, "serving"); got != 2 {
		t.Fatalf("want 2 serving rows, got %d:\n%s", got, out)
	}
	if !strings.Contains(out, "site-a") {
		t.Fatalf("load output missing domain:\n%s", out)
	}
}

func TestLoadAgainstDeadBroker(t *testing.T) {
	out, err := runCapture(t, "load", "-endpoints", "http://127.0.0.1:1")
	if err == nil {
		t.Fatalf("expected connection error, got:\n%s", out)
	}
	if !strings.Contains(out, "unreachable") {
		t.Fatalf("dead endpoint not reported:\n%s", out)
	}
}

// TestJSONTransport runs the subcommands over -transport http: the same
// wire interface serves them, accept_promotion included (the broker, not
// qosctl, answers that no promotion is open); verify stays SOAP-only.
func TestJSONTransport(t *testing.T) {
	stack, url := startBroker(t)
	out, err := runCapture(t, "-broker", url, "-transport", "http", "request", "-cpu", "2")
	if err != nil || !strings.Contains(out, `"sla_id": "site-a-sla-`) {
		t.Fatalf("request over JSON: %v\n%s", err, out)
	}
	id := latestSLA(t, stack)
	for _, action := range []string{"accept", "invoke", "terminate"} {
		if out, err := runCapture(t, "-broker", url, "-transport", "http", action, "-sla", id); err != nil {
			t.Fatalf("%s over JSON: %v\n%s", action, err, out)
		}
	}
	_, err = runCapture(t, "-broker", url, "-transport", "http", "accept_promotion", "-sla", id)
	if err == nil || !strings.Contains(err.Error(), "no open promotion") {
		t.Errorf("accept_promotion over JSON: %v, want the broker's refusal", err)
	}
	if _, err := runCapture(t, "-broker", url, "-transport", "http", "verify", "-sla", id); err == nil {
		t.Error("verify over JSON succeeded; it is a SOAP-only operation")
	}
	if _, err := runCapture(t, "-broker", url, "-transport", "carrier-pigeon", "load"); err == nil {
		t.Error("unknown -transport accepted")
	}
}
