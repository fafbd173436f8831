package registry

import (
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"gqosm/internal/clockx"
	"gqosm/internal/soapx"
)

var regT0 = time.Date(2003, time.June, 16, 9, 0, 0, 0, time.UTC)

func demoService() Service {
	return Service{
		Name:        "simulation",
		Provider:    "site-a",
		Description: "CFD solver",
		AccessPoint: "http://site-a.example/soap",
		Properties: []Property{
			NumProp("cpu-nodes", 16),
			NumProp("bandwidth-mbps", 100),
			StrProp("arch", "mips"),
		},
		LeaseUntil: regT0.Add(24 * time.Hour),
	}
}

func TestServiceXMLRoundTrip(t *testing.T) {
	s := demoService()
	s.Key = "key-1"
	back, err := ServiceFromXML(toXML(&s))
	if err != nil {
		t.Fatal(err)
	}
	if back.Key != s.Key || back.Name != s.Name || back.Provider != s.Provider ||
		back.Description != s.Description || back.AccessPoint != s.AccessPoint {
		t.Fatalf("identity fields mangled: %+v", back)
	}
	if !back.LeaseUntil.Equal(s.LeaseUntil) {
		t.Fatalf("lease %v, want %v", back.LeaseUntil, s.LeaseUntil)
	}
	if len(back.Properties) != 3 {
		t.Fatalf("%d properties, want 3", len(back.Properties))
	}
	cpu, ok := back.Property("cpu-nodes")
	if !ok || cpu.Type != Number || cpu.Num != 16 {
		t.Fatalf("cpu-nodes = %+v", cpu)
	}
	arch, ok := back.Property("arch")
	if !ok || arch.Type != String || arch.Str != "mips" {
		t.Fatalf("arch = %+v", arch)
	}
}

func TestServiceFromXMLErrors(t *testing.T) {
	for name, x := range map[string]ServiceXML{
		"bad-number": {Name: "s", Properties: []PropertyXML{{Name: "n", Type: "number", Value: "not-a-number"}}},
		"bad-type":   {Name: "s", Properties: []PropertyXML{{Name: "n", Type: "boolean", Value: "true"}}},
		"bad-lease":  {Name: "s", LeaseUntil: "yesterday"},
	} {
		if _, err := ServiceFromXML(x); err == nil {
			t.Errorf("%s: no error", name)
		}
	}
}

// newTransportPair mounts a registry on a SOAP mux behind an HTTP test
// server and returns it with a typed client pointed at it.
func newTransportPair(t *testing.T) (*Registry, *Client) {
	t.Helper()
	reg := New(clockx.NewManual(regT0))
	mux := soapx.NewMux()
	reg.Mount(mux)
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return reg, NewClient(srv.URL)
}

func TestClientRegisterFindDeregister(t *testing.T) {
	reg, client := newTransportPair(t)

	key, err := client.Register(demoService())
	if err != nil {
		t.Fatal(err)
	}
	if key == "" {
		t.Fatal("empty service key")
	}
	if len(reg.services) != 1 {
		t.Fatalf("registry holds %d services, want 1", len(reg.services))
	}

	// Property-qualified discovery (the UDDIe propertyBag search).
	matches, err := client.Find(Query{
		NamePattern: "simulation",
		Filters:     []Filter{{Name: "cpu-nodes", Op: OpGe, Value: "8"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) != 1 || matches[0].Key != key {
		t.Fatalf("matches = %+v", matches)
	}
	if cpu, ok := matches[0].Property("cpu-nodes"); !ok || cpu.Num != 16 {
		t.Fatalf("cpu-nodes lost in transit: %+v", matches[0].Properties)
	}

	// A filter excluding the service yields no rows.
	none, err := client.Find(Query{
		NamePattern: "simulation",
		Filters:     []Filter{{Name: "cpu-nodes", Op: OpGe, Value: "64"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(none) != 0 {
		t.Fatalf("expected no matches, got %+v", none)
	}

	if err := client.Deregister(key); err != nil {
		t.Fatal(err)
	}
	if len(reg.services) != 0 {
		t.Fatalf("registry still holds %d services", len(reg.services))
	}
}

func TestClientErrorsCrossTheWire(t *testing.T) {
	_, client := newTransportPair(t)

	// Registering a nameless service fails server-side; the SOAP fault
	// must surface as a client error.
	if _, err := client.Register(Service{Provider: "site-a"}); err == nil {
		t.Fatal("nameless registration succeeded")
	}

	// Deregistering an unknown key is a fault too.
	err := client.Deregister("no-such-key")
	if err == nil {
		t.Fatal("deregister of unknown key succeeded")
	}
	if !strings.Contains(err.Error(), "no-such-key") {
		t.Fatalf("fault does not identify the key: %v", err)
	}

	// A malformed filter op is rejected when evaluated against a
	// candidate service.
	if _, err := client.Register(Service{Name: "x", Properties: []Property{NumProp("p", 1)}}); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Find(Query{
		NamePattern: "x",
		Filters:     []Filter{{Name: "p", Op: Op("~="), Value: "1"}},
	}); err == nil {
		t.Fatal("bad filter op accepted")
	}
}
