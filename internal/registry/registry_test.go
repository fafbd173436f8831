package registry

import (
	"errors"
	"net/http/httptest"
	"testing"
	"time"

	"gqosm/internal/clockx"
	"gqosm/internal/soapx"
)

var t0 = time.Date(2003, 6, 16, 9, 0, 0, 0, time.UTC)

// mathSolver is a §2.1-style service advertised with QoS properties.
func mathSolver() Service {
	return Service{
		Name:        "MatrixSolver",
		Provider:    "site-a",
		Description: "dense linear algebra",
		AccessPoint: "http://site-a.example/solver",
		Properties: []Property{
			NumProp("cpu-nodes", 26),
			NumProp("memory-mb", 10240),
			NumProp("bandwidth-mbps", 622),
			StrProp("os", "linux"),
			StrProp("qos-class", "guaranteed"),
		},
	}
}

func TestRegisterGetDeregister(t *testing.T) {
	r := New(clockx.NewManual(t0))
	key, err := r.Register(mathSolver())
	if err != nil {
		t.Fatalf("Register: %v", err)
	}
	if key == "" {
		t.Fatal("empty key")
	}
	got, err := r.Get(key)
	if err != nil {
		t.Fatalf("Get: %v", err)
	}
	if got.Name != "MatrixSolver" || got.Key != key {
		t.Errorf("Get = %+v", got)
	}
	// Copies: caller mutation must not leak.
	got.Properties[0] = NumProp("cpu-nodes", 1)
	again, _ := r.Get(key)
	if p, _ := again.Property("cpu-nodes"); p.Num != 26 {
		t.Error("Get leaked internal service")
	}
	if err := r.Deregister(key); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Get(key); !errors.Is(err, ErrNotFound) {
		t.Errorf("Get after deregister err = %v", err)
	}
	if err := r.Deregister(key); !errors.Is(err, ErrNotFound) {
		t.Errorf("double Deregister err = %v", err)
	}
}

func TestRegisterValidation(t *testing.T) {
	r := New(clockx.NewManual(t0))
	if _, err := r.Register(Service{}); err == nil {
		t.Error("nameless service accepted")
	}
	bad := mathSolver()
	bad.Properties = append(bad.Properties, Property{Name: ""})
	if _, err := r.Register(bad); !errors.Is(err, ErrBadProperty) {
		t.Errorf("bad property err = %v", err)
	}
}

func TestFindByNameAndProperties(t *testing.T) {
	r := New(clockx.NewManual(t0))
	if _, err := r.Register(mathSolver()); err != nil {
		t.Fatal(err)
	}
	small := mathSolver()
	small.Name = "SmallSolver"
	small.Properties = []Property{NumProp("cpu-nodes", 4), StrProp("os", "linux")}
	if _, err := r.Register(small); err != nil {
		t.Fatal(err)
	}
	viz := Service{Name: "Visualizer", Properties: []Property{StrProp("os", "irix")}}
	if _, err := r.Register(viz); err != nil {
		t.Fatal(err)
	}

	// Name substring, case-insensitive.
	got, err := r.Find(Query{NamePattern: "solver"})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("Find(solver) = %d services", len(got))
	}

	// Property constraint: the discovery phase's "services with the
	// specified QoS capabilities".
	got, err = r.Find(Query{Filters: []Filter{
		{Name: "cpu-nodes", Op: OpGe, Value: "10"},
		{Name: "os", Op: OpEq, Value: "linux"},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Name != "MatrixSolver" {
		t.Fatalf("filtered Find = %v", got)
	}

	// Missing property excludes the service.
	got, err = r.Find(Query{Filters: []Filter{{Name: "gpu", Op: OpEq, Value: "1"}}})
	if err != nil || len(got) != 0 {
		t.Fatalf("Find(gpu) = %v, %v", got, err)
	}

	// MaxRows caps results.
	got, err = r.Find(Query{MaxRows: 1})
	if err != nil || len(got) != 1 {
		t.Fatalf("Find(MaxRows=1) = %d, %v", len(got), err)
	}

	// Malformed numeric filter fails loudly.
	if _, err := r.Find(Query{Filters: []Filter{{Name: "cpu-nodes", Op: OpGe, Value: "many"}}}); !errors.Is(err, ErrBadProperty) {
		t.Errorf("bad filter err = %v", err)
	}
	if _, err := r.Find(Query{Filters: []Filter{{Name: "cpu-nodes", Op: "between", Value: "3"}}}); !errors.Is(err, ErrBadProperty) {
		t.Errorf("bad op err = %v", err)
	}
	if _, err := r.Find(Query{Filters: []Filter{{Name: "os", Op: "between", Value: "x"}}}); !errors.Is(err, ErrBadProperty) {
		t.Errorf("bad string op err = %v", err)
	}
}

func TestFilterOperators(t *testing.T) {
	num := NumProp("x", 5)
	tests := []struct {
		op    Op
		value string
		want  bool
	}{
		{OpEq, "5", true}, {OpEq, "6", false},
		{OpNe, "6", true}, {OpNe, "5", false},
		{OpGt, "4", true}, {OpGt, "5", false},
		{OpGe, "5", true}, {OpGe, "6", false},
		{OpLt, "6", true}, {OpLt, "5", false},
		{OpLe, "5", true}, {OpLe, "4", false},
	}
	for _, tt := range tests {
		got, err := Filter{Name: "x", Op: tt.op, Value: tt.value}.Matches(num)
		if err != nil || got != tt.want {
			t.Errorf("num %s %s = %v, %v; want %v", tt.op, tt.value, got, err, tt.want)
		}
	}
	str := StrProp("s", "mm")
	strTests := []struct {
		op    Op
		value string
		want  bool
	}{
		{OpEq, "mm", true}, {OpNe, "mm", false},
		{OpGt, "aa", true}, {OpLt, "zz", true},
		{OpGe, "mm", true}, {OpLe, "mm", true},
	}
	for _, tt := range strTests {
		got, err := Filter{Name: "s", Op: tt.op, Value: tt.value}.Matches(str)
		if err != nil || got != tt.want {
			t.Errorf("str %s %s = %v, %v; want %v", tt.op, tt.value, got, err, tt.want)
		}
	}
}

func TestLeaseExpiry(t *testing.T) {
	clock := clockx.NewManual(t0)
	r := New(clock)
	s := mathSolver()
	s.LeaseUntil = t0.Add(time.Hour)
	key, err := r.Register(s)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Get(key); err != nil {
		t.Fatalf("Get before expiry: %v", err)
	}
	clock.Advance(2 * time.Hour)
	if _, err := r.Get(key); !errors.Is(err, ErrExpired) {
		t.Errorf("Get after expiry err = %v", err)
	}
	found, err := r.Find(Query{})
	if err != nil || len(found) != 0 {
		t.Errorf("expired service discoverable: %v", found)
	}
	// Renew revives it.
	if err := r.Renew(key, clock.Now().Add(time.Hour)); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Get(key); err != nil {
		t.Errorf("Get after renew: %v", err)
	}
	// Sweep removes expired entries.
	clock.Advance(3 * time.Hour)
	if n := r.Sweep(); n != 1 {
		t.Errorf("Sweep = %d, want 1", n)
	}
	if len(r.services) != 0 {
		t.Errorf("Len = %d", len(r.services))
	}
	if err := r.Renew("ghost", t0); !errors.Is(err, ErrNotFound) {
		t.Errorf("Renew ghost err = %v", err)
	}
}

func TestSOAPTransportRoundTrip(t *testing.T) {
	clock := clockx.NewManual(t0)
	r := New(clock)
	mux := soapx.NewMux()
	r.Mount(mux)
	srv := httptest.NewServer(mux)
	defer srv.Close()

	c := NewClient(srv.URL)
	s := mathSolver()
	s.LeaseUntil = t0.Add(24 * time.Hour)
	key, err := c.Register(s)
	if err != nil {
		t.Fatalf("remote Register: %v", err)
	}
	if key == "" {
		t.Fatal("empty remote key")
	}

	found, err := c.Find(Query{
		NamePattern: "matrix",
		Filters:     []Filter{{Name: "cpu-nodes", Op: OpGe, Value: "10"}},
	})
	if err != nil {
		t.Fatalf("remote Find: %v", err)
	}
	if len(found) != 1 || found[0].Key != key {
		t.Fatalf("remote Find = %+v", found)
	}
	if p, ok := found[0].Property("cpu-nodes"); !ok || p.Type != Number || p.Num != 26 {
		t.Errorf("numeric property round trip = %+v", p)
	}
	if p, ok := found[0].Property("os"); !ok || p.Str != "linux" {
		t.Errorf("string property round trip = %+v", p)
	}
	if found[0].LeaseUntil.IsZero() {
		t.Error("lease lost in transport")
	}

	if err := c.Deregister(key); err != nil {
		t.Fatalf("remote Deregister: %v", err)
	}
	found, err = c.Find(Query{})
	if err != nil || len(found) != 0 {
		t.Fatalf("Find after deregister = %v, %v", found, err)
	}

	// Server-side errors surface as faults.
	if err := c.Deregister("ghost"); err == nil {
		t.Error("remote Deregister(ghost) succeeded")
	}
	var fault *soapx.Fault
	if err := c.Deregister("ghost"); !errors.As(err, &fault) {
		t.Errorf("err = %v, want *soapx.Fault", err)
	}
}

func TestPropertyValue(t *testing.T) {
	if got := NumProp("x", 9.5).Value(); got != "9.5" {
		t.Errorf("NumProp Value = %q", got)
	}
	if got := StrProp("x", "abc").Value(); got != "abc" {
		t.Errorf("StrProp Value = %q", got)
	}
}

func TestServiceXMLHelpers(t *testing.T) {
	s := mathSolver()
	s.LeaseUntil = t0.Add(time.Hour)
	x := toXML(&s)
	back, err := ServiceFromXML(x)
	if err != nil {
		t.Fatalf("ServiceFromXML: %v", err)
	}
	if back.Name != s.Name || len(back.Properties) != len(s.Properties) {
		t.Errorf("round trip = %+v", back)
	}
	if !back.LeaseUntil.Equal(s.LeaseUntil) {
		t.Errorf("lease = %v, want %v", back.LeaseUntil, s.LeaseUntil)
	}
	// Malformed wire forms are rejected.
	bad := x
	bad.Properties = []PropertyXML{{Name: "n", Type: "number", Value: "many"}}
	if _, err := ServiceFromXML(bad); err == nil {
		t.Error("bad numeric property accepted")
	}
	bad = x
	bad.Properties = []PropertyXML{{Name: "n", Type: "matrix", Value: "x"}}
	if _, err := ServiceFromXML(bad); err == nil {
		t.Error("unknown property type accepted")
	}
	bad = x
	bad.LeaseUntil = "not-a-time"
	if _, err := ServiceFromXML(bad); err == nil {
		t.Error("bad lease accepted")
	}
}
