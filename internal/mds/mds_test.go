package mds

import (
	"errors"
	"strconv"
	"sync"
	"testing"
)

func staticProvider(a Attributes) ProviderFunc {
	return func() Attributes { return a }
}

func TestRegisterQuery(t *testing.T) {
	d := NewDirectory()
	err := d.Register("sgi-site-a", staticProvider(Attributes{
		"cpu-total": "26", "cpu-free": "16", "os": "linux",
	}))
	if err != nil {
		t.Fatalf("Register: %v", err)
	}
	attrs, err := d.Query("sgi-site-a")
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	if attrs["os"] != "linux" {
		t.Errorf("os = %q", attrs["os"])
	}
	if got := attrs["cpu-free"]; got != "16" {
		t.Errorf("cpu-free = %q", got)
	}
	if _, err := d.Query("ghost"); !errors.Is(err, ErrNotFound) {
		t.Errorf("Query ghost err = %v", err)
	}
}

func TestRegisterValidation(t *testing.T) {
	d := NewDirectory()
	if err := d.Register("", staticProvider(nil)); err == nil {
		t.Error("empty name accepted")
	}
	if err := d.Register("x", nil); err == nil {
		t.Error("nil provider accepted")
	}
	if err := d.Register("x", staticProvider(nil)); err != nil {
		t.Fatal(err)
	}
	if err := d.Register("x", staticProvider(nil)); !errors.Is(err, ErrDuplicate) {
		t.Errorf("duplicate err = %v", err)
	}
	if attrs, err := d.Query("x"); err != nil || len(attrs) != 0 {
		t.Errorf("nil-attrs provider Query = %v, %v", attrs, err)
	}
}

func TestQueryIsLive(t *testing.T) {
	// MDS providers publish *live* status: each poll sees current state.
	d := NewDirectory()
	var (
		mu   sync.Mutex
		free = 16
	)
	if err := d.Register("pool", func() Attributes {
		mu.Lock()
		defer mu.Unlock()
		return Attributes{"cpu-free": strconv.Itoa(free)}
	}); err != nil {
		t.Fatal(err)
	}
	a1, _ := d.Query("pool")
	mu.Lock()
	free = 4
	mu.Unlock()
	a2, _ := d.Query("pool")
	if a1["cpu-free"] != "16" || a2["cpu-free"] != "4" {
		t.Errorf("live polling broken: %v then %v", a1, a2)
	}
}

func TestQueryReturnsCopy(t *testing.T) {
	base := Attributes{"k": "v"}
	d := NewDirectory()
	if err := d.Register("p", staticProvider(base)); err != nil {
		t.Fatal(err)
	}
	got, _ := d.Query("p")
	got["k"] = "mutated"
	if base["k"] != "v" {
		t.Error("Query leaked the provider's map")
	}
}

func TestMountHierarchy(t *testing.T) {
	// GIIS-style aggregation: the site directory mounts per-resource
	// directories.
	child := NewDirectory()
	if err := child.Register("cpu", staticProvider(Attributes{"free": "10"})); err != nil {
		t.Fatal(err)
	}
	root := NewDirectory()
	if err := root.Mount("site-a", child); err != nil {
		t.Fatalf("Mount: %v", err)
	}
	attrs, err := root.Query("site-a/cpu")
	if err != nil {
		t.Fatalf("Query through mount: %v", err)
	}
	if attrs["free"] != "10" {
		t.Errorf("attrs = %v", attrs)
	}
	if _, err := root.Query("site-b/cpu"); !errors.Is(err, ErrNotFound) {
		t.Errorf("unknown mount err = %v", err)
	}
	if _, err := root.Query("site-a/gone"); !errors.Is(err, ErrNotFound) {
		t.Errorf("unknown child entry err = %v", err)
	}
	if err := root.Mount("site-a", child); !errors.Is(err, ErrDuplicate) {
		t.Errorf("duplicate mount err = %v", err)
	}
	for _, bad := range []string{"", "a/b"} {
		if err := root.Mount(bad, child); err == nil {
			t.Errorf("Mount(%q) accepted", bad)
		}
	}
	if err := root.Mount("ok", nil); err == nil {
		t.Error("Mount(nil) accepted")
	}
}

func TestNestedMounts(t *testing.T) {
	leaf := NewDirectory()
	if err := leaf.Register("pool", staticProvider(Attributes{"free": "3"})); err != nil {
		t.Fatal(err)
	}
	mid := NewDirectory()
	if err := mid.Mount("cluster", leaf); err != nil {
		t.Fatal(err)
	}
	root := NewDirectory()
	if err := root.Mount("grid", mid); err != nil {
		t.Fatal(err)
	}
	attrs, err := root.Query("grid/cluster/pool")
	if err != nil || attrs["free"] != "3" {
		t.Fatalf("nested Query = %v, %v", attrs, err)
	}
}

func TestSearch(t *testing.T) {
	d := NewDirectory()
	for name, free := range map[string]string{"a": "2", "b": "20", "c": "8"} {
		if err := d.Register(name, staticProvider(Attributes{"cpu-free": free})); err != nil {
			t.Fatal(err)
		}
	}
	child := NewDirectory()
	if err := child.Register("big", staticProvider(Attributes{"cpu-free": "64"})); err != nil {
		t.Fatal(err)
	}
	if err := d.Mount("remote", child); err != nil {
		t.Fatal(err)
	}

	all := d.Search(nil)
	if len(all) != 4 {
		t.Fatalf("Search(nil) = %d entries", len(all))
	}
	for i := 1; i < len(all); i++ {
		if all[i-1].Name >= all[i].Name {
			t.Fatal("Search not sorted")
		}
	}
	rich := d.Search(func(e Entry) bool { return len(e.Attrs["cpu-free"]) >= 2 })
	if len(rich) != 2 || rich[0].Name != "b" || rich[1].Name != "remote/big" {
		t.Fatalf("filtered Search = %v", rich)
	}
	if all[3].Name != "remote/big" {
		t.Fatalf("last entry = %q, want the mounted remote/big", all[3].Name)
	}
}

func TestAttributesClone(t *testing.T) {
	a := Attributes{"x": "1"}
	c := a.Clone()
	c["x"] = "2"
	if a["x"] != "1" {
		t.Error("Clone shares map")
	}
}
