package rsl

import (
	"errors"
	"fmt"
	"testing"
)

var cacheSpecs = []string{
	`&(count=10)(memory>=2048)(disk=15)(label="sla-3")`,
	`&(reservation-type="compute")(count=10)(memory=2048)(disk=15)`,
	`+(&(reservation-type="compute")(count=10))` +
		`(&(reservation-type="network")(bandwidth=622))`,
	`|(count=4)(count=8)`,
	`x!=-1.5e3`,
}

func TestParseCachedEquivalence(t *testing.T) {
	for _, in := range cacheSpecs {
		want, err := Parse(in)
		if err != nil {
			t.Fatalf("Parse(%q): %v", in, err)
		}
		got, err := ParseCached(in)
		if err != nil {
			t.Fatalf("ParseCached(%q): %v", in, err)
		}
		if !want.Equal(got) {
			t.Errorf("ParseCached(%q) tree differs from Parse", in)
		}
		if want.String() != got.String() {
			t.Errorf("ParseCached(%q) canonical form differs: %q vs %q", in, got.String(), want.String())
		}
	}
}

func TestParseCachedSharesNode(t *testing.T) {
	in := `&(count=7)(label="shared")`
	first, err := ParseCached(in)
	if err != nil {
		t.Fatal(err)
	}
	second, err := ParseCached(in)
	if err != nil {
		t.Fatal(err)
	}
	if first != second {
		t.Error("repeated ParseCached returned distinct trees; expected one interned node")
	}
}

func TestParseCachedErrorIdentity(t *testing.T) {
	// Errors are never cached: every call re-runs the parser, so the
	// failure (type, offset, message) is identical on both paths.
	for _, in := range []string{``, `   `, `(((`, `&(a=1)trailing`, `&()`} {
		_, wantErr := Parse(in)
		if wantErr == nil {
			t.Fatalf("Parse(%q) unexpectedly succeeded", in)
		}
		for i := 0; i < 2; i++ {
			_, gotErr := ParseCached(in)
			if gotErr == nil {
				t.Fatalf("ParseCached(%q) call %d succeeded, want %v", in, i, wantErr)
			}
			if gotErr.Error() != wantErr.Error() {
				t.Errorf("ParseCached(%q) error %q, want %q", in, gotErr, wantErr)
			}
			var pe *ParseError
			if !errors.As(gotErr, &pe) && !errors.Is(gotErr, ErrEmpty) {
				t.Errorf("ParseCached(%q) returned untyped error %v", in, gotErr)
			}
		}
	}
}

func TestParseCachedSkipsOversizeInput(t *testing.T) {
	big := "&"
	for i := 0; len(big) <= parseCacheMaxInput; i++ {
		big += fmt.Sprintf("(p%d=%d)", i, i)
	}
	a, err := ParseCached(big)
	if err != nil {
		t.Fatalf("ParseCached(oversize): %v", err)
	}
	b, err := ParseCached(big)
	if err != nil {
		t.Fatal(err)
	}
	if a == b {
		t.Error("oversize input was interned; expected a fresh parse per call")
	}
	parseCache.RLock()
	_, interned := parseCache.m[big]
	parseCache.RUnlock()
	if interned {
		t.Error("oversize input stored in the cache")
	}
}

func TestParseCacheBounded(t *testing.T) {
	for i := 0; i < parseCacheCap+64; i++ {
		in := fmt.Sprintf(`&(count=%d)(label="bound")`, i)
		if _, err := ParseCached(in); err != nil {
			t.Fatal(err)
		}
	}
	parseCache.RLock()
	n, ord := len(parseCache.m), len(parseCache.order)
	parseCache.RUnlock()
	if n > parseCacheCap || ord > parseCacheCap {
		t.Errorf("cache exceeded cap: %d entries, %d order slots (cap %d)", n, ord, parseCacheCap)
	}
	if n != ord {
		t.Errorf("map (%d) and order (%d) out of sync", n, ord)
	}
}

// TestParseCachedHitAllocs is the deterministic allocation gate for the
// RSL hot path: a cache hit must not allocate at all.
func TestParseCachedHitAllocs(t *testing.T) {
	in := `&(reservation-type="compute")(count=12)(memory=4096)(label="allocs")`
	if _, err := ParseCached(in); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := ParseCached(in); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("ParseCached hit allocates %.1f objects per call, want 0", allocs)
	}
}

// FuzzRSLCacheEquiv checks ParseCached against Parse for arbitrary
// inputs: identical acceptance, identical error text, structurally
// equal trees with the same canonical form.
func FuzzRSLCacheEquiv(f *testing.F) {
	for _, seed := range cacheSpecs {
		f.Add(seed)
	}
	f.Add(``)
	f.Add(`(((`)
	f.Add(`&(a=1)trailing`)
	f.Fuzz(func(t *testing.T, input string) {
		want, wantErr := Parse(input)
		got, gotErr := ParseCached(input)
		if (wantErr == nil) != (gotErr == nil) {
			t.Fatalf("acceptance differs for %q: Parse err=%v, ParseCached err=%v", input, wantErr, gotErr)
		}
		if wantErr != nil {
			if wantErr.Error() != gotErr.Error() {
				t.Fatalf("error text differs for %q: %q vs %q", input, wantErr, gotErr)
			}
			return
		}
		if !want.Equal(got) {
			t.Fatalf("trees differ for %q", input)
		}
		if want.String() != got.String() {
			t.Fatalf("canonical forms differ for %q: %q vs %q", input, want.String(), got.String())
		}
	})
}

// parseUncached is one uncached parse of the multirequest, the heaviest
// common shape: what BenchmarkRSLParse times and TestParseAllocGate counts.
func parseUncached(tb testing.TB) {
	if _, err := Parse(cacheSpecs[2]); err != nil {
		tb.Fatal(err)
	}
}

// TestParseAllocGate is the deterministic allocation gate for a cache
// miss: the parser's node and value allocations for the multirequest, and
// not one more.
func TestParseAllocGate(t *testing.T) {
	const gate = 15
	if allocs := testing.AllocsPerRun(200, func() { parseUncached(t) }); allocs > gate {
		t.Errorf("Parse allocates %.0f objects per call, gate is %d", allocs, gate)
	}
}

func BenchmarkRSLParse(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		parseUncached(b)
	}
}

func BenchmarkRSLParseCached(b *testing.B) {
	in := cacheSpecs[2]
	if _, err := ParseCached(in); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ParseCached(in); err != nil {
			b.Fatal(err)
		}
	}
}
