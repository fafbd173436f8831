package gara

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"gqosm/internal/resource"
	"gqosm/internal/rsl"
)

// TestCreateRefusesRepeatedType: a reservation holds one part per
// reservation-type, so a multirequest naming one type twice is refused
// before anything is reserved. A table keyed by type once kept only the
// second part, and its Cancel left the first held for ever.
func TestCreateRefusesRepeatedType(t *testing.T) {
	s, pool, netMgr := testSystem(t)
	for _, req := range []string{
		`+(&(reservation-type="compute")(count=1))(&(reservation-type="compute")(count=2))`,
		`+(&(reservation-type="compute")(count=1))` +
			`(&(reservation-type="network")(source-ip="135.200.50.101")(dest-ip="192.200.168.33")(bandwidth=10))` +
			`(&(reservation-type="compute")(count=2))`,
	} {
		h, err := s.Create(req, t0, tEnd, "dup-type")
		if !errors.Is(err, ErrDuplicateType) {
			t.Fatalf("Create(%s) = %s, %v; want ErrDuplicateType", req, h, err)
		}
		if got := pool.InUse(t0); !got.IsZero() {
			t.Errorf("pool in use after the refusal = %v, want nothing", got)
		}
		if len(netMgr.Flows()) != 0 {
			t.Error("network part reserved before the refusal")
		}
	}
	if rs := s.Reservations(); len(rs) != 0 {
		t.Errorf("Reservations = %v, want none", rs)
	}
	if _, ok := s.FindByTag("dup-type"); ok {
		t.Error("refused create indexed its tag")
	}
}

// TestPartsSortedByType: Parts is in type order whatever the RSL order,
// and Token finds each part.
func TestPartsSortedByType(t *testing.T) {
	s, _, _ := testSystem(t)
	req := `+(&(reservation-type="storage")(disk=5))` +
		`(&(reservation-type="network")(source-ip="135.200.50.101")(dest-ip="192.200.168.33")(bandwidth=10))` +
		`(&(reservation-type="compute")(count=1))`
	h, err := s.Create(req, t0, tEnd, "")
	if err != nil {
		t.Fatal(err)
	}
	r, _ := s.Get(h)
	var types []string
	for _, p := range r.Parts {
		types = append(types, p.Type)
		if tok, ok := r.Token(p.Type); !ok || tok != p.Token {
			t.Errorf("Token(%s) = %q, %v; want %q", p.Type, tok, ok, p.Token)
		}
	}
	if fmt.Sprint(types) != "[compute network storage]" {
		t.Errorf("part types %v, want type order", types)
	}
	if _, ok := r.Token(TypeCPUShare); ok {
		t.Error("Token found a part the reservation does not hold")
	}
}

// okRM reserves anything and accepts every call, issuing one token per
// reservation.
type okRM struct {
	typ  string
	next *int
}

func (m okRM) Type() string { return m.typ }
func (m okRM) Reserve(*rsl.Node, time.Time, time.Time, string) (string, error) {
	*m.next++
	return fmt.Sprint(m.typ, "-", *m.next), nil
}
func (m okRM) Modify(string, *rsl.Node) error { return nil }
func (m okRM) Cancel(string) error            { return nil }

func newOKSystem() *System {
	s := NewSystem()
	s.RegisterManager(okRM{typ: TypeCompute, next: new(int)})
	return s
}

const okReq = `&(reservation-type="compute")(count=1)`

func mustCreate(t *testing.T, s *System, tag string) Handle {
	t.Helper()
	h, err := s.Create(okReq, t0, tEnd, tag)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func mustCancel(t *testing.T, s *System, h Handle) {
	t.Helper()
	if err := s.Cancel(h); err != nil {
		t.Fatal(err)
	}
}

func TestFindByTag(t *testing.T) {
	want := func(t *testing.T, s *System, tag string, h Handle, found bool) {
		t.Helper()
		if got, ok := s.FindByTag(tag); got != h || ok != found {
			t.Fatalf("FindByTag(%q) = %q, %v; want %q, %v", tag, got, ok, h, found)
		}
	}

	t.Run("empty tag", func(t *testing.T) {
		s := newOKSystem()
		mustCreate(t, s, "")
		want(t, s, "", "", false)
	})

	t.Run("one live handle", func(t *testing.T) {
		s := newOKSystem()
		mustCreate(t, s, "other")
		h := mustCreate(t, s, "sla-1")
		want(t, s, "sla-1", h, true)
		want(t, s, "sla-2", "", false)
		mustCancel(t, s, h)
		want(t, s, "sla-1", "", false)
		want(t, s, "other", "gara-1", true)
	})

	// A double commit leaves several live handles under one tag: the
	// lowest-numbered wins, by number, not by string (gara-9 before
	// gara-10), and a cancelled one is never returned.
	t.Run("duplicates", func(t *testing.T) {
		s := newOKSystem()
		for i := 1; i <= 7; i++ {
			mustCreate(t, s, fmt.Sprint("pad-", i))
		}
		h8, h9, h10 := mustCreate(t, s, "dup"), mustCreate(t, s, "dup"), mustCreate(t, s, "dup")
		if h8 != "gara-8" || h10 != "gara-10" {
			t.Fatalf("handles %s..%s, want gara-8..gara-10", h8, h10)
		}
		want(t, s, "dup", h8, true)
		mustCancel(t, s, h8)
		want(t, s, "dup", h9, true)
		if s.PruneCanceled() != 1 {
			t.Fatal("PruneCanceled did not remove gara-8")
		}
		want(t, s, "dup", h9, true)
		h11 := mustCreate(t, s, "dup")
		mustCancel(t, s, h10) // not the lowest: nothing to rescan
		want(t, s, "dup", h9, true)
		mustCancel(t, s, h9)
		want(t, s, "dup", h11, true)
		mustCancel(t, s, h11)
		want(t, s, "dup", "", false)
		s.PruneCanceled()
		want(t, s, "dup", "", false)
		if _, ok := s.byTag["dup"]; ok {
			t.Error("tag index keeps an entry with no live handle")
		}
	})
}

// TestFindByTagMatchesScan drives the tag index with random create,
// cancel and prune steps over a few tags (duplicates included) and
// after every step compares FindByTag, for every tag, with a scan of
// Reservations for the lowest-numbered live handle.
func TestFindByTagMatchesScan(t *testing.T) {
	tags := []string{"", "a", "b", "c"}
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s := newOKSystem()
		var live []Handle
		for step := 0; step < 500; step++ {
			switch r := rng.Intn(10); {
			case r < 5 || len(live) == 0:
				live = append(live, mustCreate(t, s, tags[rng.Intn(len(tags))]))
			case r < 9:
				i := rng.Intn(len(live))
				mustCancel(t, s, live[i])
				live = append(live[:i], live[i+1:]...)
			default:
				s.PruneCanceled()
			}
			scan := map[string]Handle{}
			for _, r := range s.Reservations() {
				if r.Status == StatusCanceled || r.Tag == "" {
					continue
				}
				if best, ok := scan[r.Tag]; !ok || handleLess(r.Handle, best) {
					scan[r.Tag] = r.Handle
				}
			}
			for _, tag := range tags {
				wantH, wantOK := scan[tag]
				if h, ok := s.FindByTag(tag); h != wantH || ok != wantOK {
					t.Fatalf("seed %d step %d: FindByTag(%q) = %q, %v; the scan says %q, %v",
						seed, step, tag, h, ok, wantH, wantOK)
				}
			}
			if len(s.byTag) != len(scan) {
				t.Fatalf("seed %d step %d: tag index has %d entries, %d tags are live", seed, step, len(s.byTag), len(scan))
			}
		}
	}
}

// TestCreateCancelAllocGate holds one single-part create + cancel on a
// warm System to a count: the Reservation, its one-part Parts slice, the
// handle and what the compute manager and its pool allocate. The parts
// table is a type-ordered slice and the tag index holds one value per
// tag, so neither makes a map, and the rollback managers and the
// cancel's (manager, token) pairs stay on the stack.
func TestCreateCancelAllocGate(t *testing.T) {
	const gate = 7 // measured 6 (go1.24); 11 while Parts was a map, the tag index held a slice per tag and create and cancel built scratch slices
	pool := resource.NewPool("gate", resource.Capacity{CPU: 1 << 12, MemoryMB: 1 << 22, DiskGB: 1 << 16})
	s := NewSystem()
	s.RegisterManager(NewComputeManager(pool))
	const req = `&(reservation-type="compute")(count=2)(memory=512)(disk=10)`
	cycle := func() {
		h, err := s.Create(req, t0, tEnd, "sla-gate")
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Cancel(h); err != nil {
			t.Fatal(err)
		}
		s.PruneCanceled() // the table holds one entry, so it never grows
	}
	for i := 0; i < 64; i++ {
		cycle()
	}
	allocs := testing.AllocsPerRun(200, cycle)
	if got := pool.InUse(t0); !got.IsZero() {
		t.Fatalf("pool in use after the cycles = %v", got)
	}
	if allocs > gate {
		t.Errorf("create + cancel of one compute part allocates %.0f objects, gate is %d", allocs, gate)
	}
	t.Logf("create + cancel of one compute part: %.0f allocs", allocs)
}
