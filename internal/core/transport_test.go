package core

import (
	"errors"
	"fmt"
	"math"
	"net/http/httptest"
	"strings"
	"testing"

	"gqosm/internal/resource"
	"gqosm/internal/sla"
	"gqosm/internal/soapx"
)

// TestFigure5Testbed is the SOAP-only half of the Fig. 5 testbed: what
// travels as whole XML documents — the Table-1 SLA in the offer and the
// Table-3 QoS levels of an explicit verification test (Fig. 7 actions a
// and d). The lifecycle actions both wires carry are walked by httpapi's
// TestWireLifecycle.
func TestFigure5Testbed(t *testing.T) {
	h := newHarness(t)
	mux := soapx.NewMux()
	h.broker.Mount(mux)
	srv := httptest.NewServer(mux)
	defer srv.Close()
	client := NewClient(srv.URL)

	// (a) Request a service with QoS properties.
	offer, err := client.RequestService(guaranteedRequest())
	if err != nil {
		t.Fatalf("remote RequestService: %v", err)
	}
	if offer.Price <= 0 || offer.SLA.SLAID == "" {
		t.Fatalf("offer = %+v", offer)
	}
	if !strings.Contains(offer.SLA.Class, "Guaranteed") {
		t.Errorf("offer class = %q", offer.SLA.Class)
	}
	id := sla.ID(offer.SLA.SLAID)
	if _, err := client.Act(id, "accept", ""); err != nil {
		t.Fatalf("remote accept: %v", err)
	}

	// (d) Explicit SLA verification test returns the Table-3 document.
	levels, err := client.Verify(id)
	if err != nil {
		t.Fatalf("remote verify: %v", err)
	}
	if levels.SLAID != string(id) || !levels.Conforms {
		t.Errorf("QoS_Levels = %+v", levels)
	}
	if levels.Network == nil || !strings.Contains(levels.Network.Bandwidth, "Mbps") {
		t.Errorf("network levels = %+v", levels.Network)
	}
}

// TestTransportReject and TestTransportBestEffort look at the substrate
// behind the SOAP wire from inside the package (the pool, the allocator);
// TestWireLifecycle checks the same outcomes over both wires.
func TestTransportReject(t *testing.T) {
	h := newHarness(t)
	mux := soapx.NewMux()
	h.broker.Mount(mux)
	srv := httptest.NewServer(mux)
	defer srv.Close()
	client := NewClient(srv.URL)

	offer, err := client.RequestService(guaranteedRequest())
	if err != nil {
		t.Fatal(err)
	}
	// (c) Reject the SLA offer.
	if _, err := client.Act(sla.ID(offer.SLA.SLAID), "reject", "too pricey"); err != nil {
		t.Fatalf("remote reject: %v", err)
	}
	if got := h.pool.InUse(t0).CPU; got != 0 {
		t.Errorf("pool holds %g CPU after remote reject", got)
	}
}

func TestTransportBestEffort(t *testing.T) {
	h := newHarness(t)
	mux := soapx.NewMux()
	h.broker.Mount(mux)
	srv := httptest.NewServer(mux)
	defer srv.Close()
	client := NewClient(srv.URL)

	if err := client.BestEffort("student", resource.Nodes(4), false); err != nil {
		t.Fatalf("remote best effort: %v", err)
	}
	if got := bestEffortHeld(h.broker.Allocator()); got.CPU != 4 {
		t.Errorf("allocation = %v", got)
	}
	if err := client.BestEffort("student", resource.Capacity{}, true); err != nil {
		t.Fatalf("remote release: %v", err)
	}
	if got := bestEffortHeld(h.broker.Allocator()); !got.IsZero() {
		t.Errorf("allocation survived release: %v", got)
	}
}

func TestTransportFaults(t *testing.T) {
	h := newHarness(t)
	mux := soapx.NewMux()
	h.broker.Mount(mux)
	srv := httptest.NewServer(mux)
	defer srv.Close()
	client := NewClient(srv.URL)

	// Unknown SLA surfaces as a fault.
	var fault *soapx.Fault
	if _, err := client.Act("ghost", "accept", ""); !errors.As(err, &fault) {
		t.Errorf("err = %v, want fault", err)
	}
	// Unknown action.
	if _, err := client.Act("ghost", "dance", ""); !errors.As(err, &fault) {
		t.Errorf("err = %v, want fault", err)
	}
	// A request no registered service can satisfy.
	bad := guaranteedRequest()
	bad.Service = "nothing"
	if _, err := client.RequestService(bad); !errors.As(err, &fault) {
		t.Errorf("err = %v, want fault", err)
	}
	if !strings.Contains(fault.String, "no service") {
		t.Errorf("fault = %+v", fault)
	}
	// Bad class is rejected at decode.
	req := guaranteedRequest()
	req.Class = sla.Class(42)
	if _, err := client.RequestService(req); err == nil {
		t.Error("bad class accepted")
	}
}

func TestTransportRangeAndListSpecs(t *testing.T) {
	h := newHarness(t)
	mux := soapx.NewMux()
	h.broker.Mount(mux)
	srv := httptest.NewServer(mux)
	defer srv.Close()
	client := NewClient(srv.URL)

	req := controlledRequest("remote-cl")
	req.Spec = withParam(req.Spec, sla.List(resource.DiskGB, 10, 20, 40))
	offer, err := client.RequestService(req)
	if err != nil {
		t.Fatalf("remote controlled-load request: %v", err)
	}
	doc, err := h.broker.Session(sla.ID(offer.SLA.SLAID))
	if err != nil {
		t.Fatal(err)
	}
	p, ok := doc.Spec.Get(resource.DiskGB)
	if !ok || p.Form != sla.FormList || len(p.Values) != 3 {
		t.Errorf("list param lost in transport: %+v", p)
	}
	p, ok = doc.Spec.Get(resource.CPU)
	if !ok || p.Form != sla.FormRange || p.Min != 2 || p.Max != 8 {
		t.Errorf("range param lost in transport: %+v", p)
	}
}

// TestSOAPBindingCoversTheTable pins the SOAP binding against the
// operation table: every op an element names is a table row, named once,
// and the only row SOAP does not carry is the JSON-only read session
// (httpapi's TestRoutesCoverTheTable pins that JSON lacks only verify —
// so every row is reachable on some wire).
func TestSOAPBindingCoversTheTable(t *testing.T) {
	served := map[string]string{}
	for _, el := range soapElements {
		for _, op := range el.ops {
			if prev, dup := served[op]; dup {
				t.Errorf("op %q is carried by both %s and %s", op, prev, el.name)
			}
			served[op] = el.name
		}
	}
	var missing []string
	rows := map[string]bool{}
	for _, op := range Ops {
		rows[op.Name] = true
		if served[op.Name] == "" {
			missing = append(missing, op.Name)
		}
	}
	for op, el := range served {
		if !rows[op] {
			t.Errorf("%s names %q, which is not a row of Ops", el, op)
		}
	}
	if got := strings.Join(missing, ","); got != "session" {
		t.Errorf("rows without a SOAP element = %q, want session", got)
	}
}

// TestTaxonomyIsComplete is the static half of the error contract: every
// code is distinct and travels under an HTTP status, and a wire error
// rebuilt from a code matches its sentinel and no other row's.
func TestTaxonomyIsComplete(t *testing.T) {
	codes := map[string]bool{}
	for _, row := range taxonomy {
		if row.code == "" || codes[row.code] {
			t.Errorf("taxonomy code %q is empty or repeated", row.code)
		}
		codes[row.code] = true
		if row.status < 400 || row.status > 599 {
			t.Errorf("taxonomy code %q has HTTP status %d", row.code, row.status)
		}
		if code, status := WireStatus(fmt.Errorf("wrapped: %w", row.err)); code != row.code || status != row.status {
			t.Errorf("WireStatus(%v) = (%q, %d), want (%q, %d)", row.err, code, status, row.code, row.status)
		}
		rebuilt := WireError(row.code, errors.New("from the wire"))
		for _, other := range taxonomy {
			if got, want := errors.Is(rebuilt, other.err), other.code == row.code; got != want {
				t.Errorf("WireError(%q) matches %v = %v", row.code, other.err, got)
			}
		}
	}
}

// TestSOAPDocumentsDecode decodes the load_report reply, a document only
// this package names, through soapx's reader: its plan builds, and the
// round trip keeps every field.
func TestSOAPDocumentsDecode(t *testing.T) {
	want := loadReportXML{LoadReport: LoadReport{Domain: "site-a", Sessions: 12, Load: 0.75, Recovering: true}}
	data, err := soapx.Marshal(&want)
	if err != nil {
		t.Fatal(err)
	}
	var got loadReportXML
	if err := soapx.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	if got.LoadReport != want.LoadReport || got.XMLName.Local != "load_report" {
		t.Errorf("load_report round trip: %+v, want %+v", got, want)
	}
}

// TestMaxLossXMLMatchesFmt pins the appended Table-1 packet-loss bound to
// the fmt rendering it replaced, byte for byte.
func TestMaxLossXMLMatchesFmt(t *testing.T) {
	for _, v := range []float64{0, 0.5, 1, 10, 12.345, 1e-7, 3e21, 1.0 / 3, math.MaxFloat64, math.Inf(1)} {
		want := ""
		if v > 0 {
			want = fmt.Sprintf("LessThan %g%%", v)
		}
		if got := maxLossXML(sla.Spec{MaxPacketLossPct: v}); got != want {
			t.Errorf("maxLossXML(%v) = %q, want %q", v, got, want)
		}
	}
}
