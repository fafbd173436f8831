package registry

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"testing"
	"time"

	"gqosm/internal/clockx"
	"gqosm/internal/resource"
)

// findFirst is First's reference: the find_service query a floor stands
// for (one "ge" filter per positive dimension, the floor rendered as text)
// through Find, and its first match whose floored adverts are Numbers.
// Find compares a String property with the filter as text; First never
// lets a String meet a numeric floor.
func findFirst(t *testing.T, r *Registry, pattern string, floor resource.Capacity) (Key, bool) {
	t.Helper()
	q := Query{NamePattern: pattern}
	for _, a := range Adverts {
		if v := floor.Get(a.Kind); v > 0 {
			q.Filters = append(q.Filters, Filter{Name: a.Name, Op: OpGe, Value: strconv.FormatFloat(v, 'f', -1, 64)})
		}
	}
	matches, err := r.Find(q)
	if err != nil {
		t.Fatalf("Find(%+v): %v", q, err)
	}
next:
	for _, s := range matches {
		for _, f := range q.Filters {
			if p, _ := s.Property(f.Name); p.Type != Number {
				continue next
			}
		}
		return s.Key, true
	}
	return "", false
}

// advertValues are the numbers a fuzzed advert draws from: the edges of a
// "ge" comparison (zero, equality with a floor, infinities, NaN) and
// values whose text compares differently from their number.
var advertValues = [...]float64{0, 1, 8, 10, 26, 100, 1e300, -1, math.Inf(1), math.NaN()}

// FuzzFirstMatchesFind registers, renews and deregisters services under
// ops, advancing the clock so leases lapse, and after every step holds
// First to findFirst. Names are the fuzzed name in several cases, so the
// pattern's case folding meets arbitrary UTF-8.
func FuzzFirstMatchesFind(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7}, "Simulation", "simul", 2.0, 512.0, 0.0, 0.0)
	f.Add([]byte{0, 9, 0, 17, 3, 0, 33, 200, 1, 0}, "MatrixSolver", "SOLV", 10.0, 0.0, 0.0, 0.0)
	f.Add([]byte{0, 85, 0, 170, 2, 0, 255, 1}, "İSTANBUL", "i̇st", 8.0, 0.0, 0.0, 1e300)
	f.Add([]byte{0, 3, 0, 12, 0, 48, 2, 7, 1, 1}, "\xffsimÅ", "�S", math.Inf(1), 0.0, 5e-324, 0.0)
	f.Add([]byte{}, "", "", 0.0, 0.0, 0.0, 0.0)
	f.Fuzz(func(t *testing.T, ops []byte, name, pattern string, cpu, mem, disk, bwd float64) {
		clock := clockx.NewManual(time.Date(2003, 6, 16, 9, 0, 0, 0, time.UTC))
		r := New(clock)
		floor := resource.Capacity{CPU: cpu, MemoryMB: mem, DiskGB: disk, BandwidthMbps: bwd}
		names := [...]string{name, strings.ToUpper(name), strings.ToLower(name), "simulation"}
		var keys []Key
		next := func() byte {
			if len(ops) == 0 {
				return 0
			}
			b := ops[0]
			ops = ops[1:]
			return b
		}
		for step := 0; len(ops) > 0 && step < 64; step++ {
			switch op := next(); op % 4 {
			case 0: // register
				sel := next()
				s := Service{Name: names[sel%4], Provider: "site"}
				if s.Name == "" {
					s.Name = "simulation"
				}
				for _, a := range Adverts {
					switch b := next(); b % 4 {
					case 1:
						s.Properties = append(s.Properties, NumProp(a.Name, advertValues[int(b/4)%len(advertValues)]))
					case 2:
						s.Properties = append(s.Properties, NumProp(a.Name, floor.Get(a.Kind)))
					case 3: // a String whose Num is set too: only its type keeps it from a floor
						p := StrProp(a.Name, strconv.Itoa(int(b/4)))
						p.Num = advertValues[int(b/4)%len(advertValues)]
						s.Properties = append(s.Properties, p)
					}
				}
				if sel&4 != 0 {
					s.LeaseUntil = clock.Now().Add(time.Duration(sel>>3) * time.Second)
				}
				k, err := r.Register(s)
				if err != nil {
					t.Fatal(err)
				}
				keys = append(keys, k)
			case 1: // deregister
				if len(keys) > 0 {
					_ = r.Deregister(keys[int(next())%len(keys)])
				}
			case 2: // renew
				if len(keys) > 0 {
					_ = r.Renew(keys[int(next())%len(keys)], clock.Now().Add(time.Duration(next())*time.Second))
				}
			case 3:
				clock.Advance(time.Duration(op>>2) * time.Second)
			}
			want, wantOK := findFirst(t, r, pattern, floor)
			got, ok := r.First(pattern, floor)
			if got != want || ok != wantOK {
				t.Fatalf("step %d: First(%q, %v) = %q, %v; Find's first match %q, %v", step, pattern, floor, got, ok, want, wantOK)
			}
		}
	})
}

// BenchmarkFirst times the broker's discovery query against n registered
// services, every one a match: the scan is O(services).
func BenchmarkFirst(b *testing.B) {
	floor := resource.Capacity{CPU: 2, MemoryMB: 512}
	for _, n := range []int{1, 1000} {
		b.Run(fmt.Sprintf("services=%d", n), func(b *testing.B) {
			r := New(clockx.NewManual(time.Date(2003, 6, 16, 9, 0, 0, 0, time.UTC)))
			for i := 0; i < n; i++ {
				if _, err := r.Register(Service{Name: "simulation", Provider: "site", Properties: []Property{
					NumProp("cpu-nodes", 26), NumProp("memory-mb", 10240), NumProp("disk-gb", 200), NumProp("bandwidth-mbps", 1000),
				}}); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, ok := r.First("simulation", floor); !ok {
					b.Fatal("no match")
				}
			}
		})
	}
}
