package registry

import (
	"testing"
	"time"

	"gqosm/internal/clockx"
)

// TestGenerationCountsMutations pins the contract discovery caches rely
// on: Generation() is monotonic, bumps on every successful mutation
// (Register, Deregister, Renew, a Sweep that removed something), stays
// put on reads and failed or no-op operations, and is never shared by two
// registries, even ones with identical mutation histories.
func TestGenerationCountsMutations(t *testing.T) {
	start := time.Date(2003, 6, 16, 9, 0, 0, 0, time.UTC)
	clock := clockx.NewManual(start)
	r := New(clock)

	last := r.Generation()
	expectBump := func(op string, want bool) {
		t.Helper()
		g := r.Generation()
		if want && g <= last {
			t.Errorf("%s: generation %d, want > %d", op, g, last)
		}
		if !want && g != last {
			t.Errorf("%s: generation %d, want unchanged %d", op, g, last)
		}
		if g < last {
			t.Errorf("%s: generation went backwards (%d < %d)", op, g, last)
		}
		last = g
	}

	key, err := r.Register(Service{Name: "simulation", Provider: "site-a"})
	if err != nil {
		t.Fatal(err)
	}
	expectBump("Register", true)

	if _, err := r.Find(Query{NamePattern: "simulation"}); err != nil {
		t.Fatal(err)
	}
	expectBump("Find", false)

	if err := r.Renew(key, start.Add(time.Hour)); err != nil {
		t.Fatal(err)
	}
	expectBump("Renew", true)

	if err := r.Renew("svc-9999", start.Add(time.Hour)); err == nil {
		t.Fatal("Renew of unknown key succeeded")
	}
	expectBump("failed Renew", false)

	if n := r.Sweep(); n != 0 {
		t.Fatalf("Sweep removed %d, want 0", n)
	}
	expectBump("no-op Sweep", false)

	clock.Advance(2 * time.Hour) // past the renewed lease
	if n := r.Sweep(); n != 1 {
		t.Fatalf("Sweep removed %d, want 1", n)
	}
	expectBump("Sweep", true)

	key2, err := r.Register(Service{Name: "simulation", Provider: "site-b"})
	if err != nil {
		t.Fatal(err)
	}
	expectBump("Register", true)
	if err := r.Deregister(key2); err != nil {
		t.Fatal(err)
	}
	expectBump("Deregister", true)

	if err := r.Deregister(key2); err == nil {
		t.Fatal("Deregister of removed key succeeded")
	}
	expectBump("failed Deregister", false)

	// A restarted registry replays the dead one's history: every
	// generation either shows must be its own.
	owner := map[uint64]*Registry{}
	note := func(step string, r *Registry) {
		t.Helper()
		g := r.Generation()
		if o, ok := owner[g]; ok && o != r {
			t.Errorf("%s: two registries share generation %d", step, g)
		}
		owner[g] = r
	}
	twins := [2]*Registry{New(clock), New(clock)}
	for _, tw := range twins {
		note("New", tw)
	}
	for _, tw := range twins {
		k, err := tw.Register(Service{Name: "simulation", Provider: "site-a"})
		if err != nil {
			t.Fatal(err)
		}
		note("Register", tw)
		if err := tw.Renew(k, clock.Now().Add(time.Hour)); err != nil {
			t.Fatal(err)
		}
		note("Renew", tw)
		if err := tw.Deregister(k); err != nil {
			t.Fatal(err)
		}
		note("Deregister", tw)
	}
}
