package rsl

import "sync"

// This file is the parse cache: GARA re-receives the same reservation
// specs over and over — the broker renders one RSL string per (spec,
// allocation) shape and most admissions share a handful of shapes — so
// re-running the parser on every Create/Modify is pure waste. GRAM does
// too: a job spec names only the service's executable and the whole
// seconds left in its window. Neither carries the SLA ID; it travels
// beside the RSL (GARA's tag, GRAM's label), because a string that holds
// an identity never repeats and would only fill the cache.
// ParseCached interns successful parse results keyed by the exact input
// string; a hit is one read-locked map lookup, zero allocations.
//
// Interned nodes are SHARED and MUST NOT be mutated. Nothing in this
// repository mutates a *Node after Parse returns it (the tree is built
// by the parser and only read by Eval/Lookup/SubRequests and the
// resource managers), and the fuzz target FuzzRSLCacheEquiv checks
// cached and uncached parses stay structurally identical. Callers that
// need a private tree should use Parse.
//
// Errors are never cached: a failing input re-runs the parser, so the
// error value (type, offset, message) is identical on the cached and
// uncached paths every time.

const (
	// parseCacheCap bounds the interned entries; eviction is FIFO by
	// insertion order, so cache behavior is deterministic.
	parseCacheCap = 4096
	// parseCacheMaxInput skips interning of unusually large inputs — a
	// one-off giant spec should not pin a cache slot.
	parseCacheMaxInput = 1024
)

// parseCache's order is a ring of the interned inputs: once it is full,
// order[head] is the oldest entry, evicted by overwriting its slot.
var parseCache = struct {
	sync.RWMutex
	m     map[string]*Node
	order []string
	head  int
}{m: make(map[string]*Node)}

// ParseCached parses an RSL specification like Parse, interning
// successful results: repeated calls with the same input return one
// shared, immutable *Node. See the package comments above for the
// sharing contract.
func ParseCached(input string) (*Node, error) {
	parseCache.RLock()
	n, ok := parseCache.m[input]
	parseCache.RUnlock()
	if ok {
		return n, nil
	}
	n, err := Parse(input)
	if err != nil {
		return nil, err
	}
	if len(input) > parseCacheMaxInput {
		return n, nil
	}
	parseCache.Lock()
	if cached, dup := parseCache.m[input]; dup {
		// A concurrent parse of the same input won the race; return its
		// node so every caller shares one tree.
		n = cached
	} else {
		if len(parseCache.order) < parseCacheCap {
			parseCache.order = append(parseCache.order, input)
		} else {
			delete(parseCache.m, parseCache.order[parseCache.head])
			parseCache.order[parseCache.head] = input
			parseCache.head = (parseCache.head + 1) % parseCacheCap
		}
		parseCache.m[input] = n
	}
	parseCache.Unlock()
	return n, nil
}
