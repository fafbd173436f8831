package core

import (
	"sync"
	"time"

	"gqosm/internal/obs"
	"gqosm/internal/registry"
	"gqosm/internal/resource"
)

// This file is the discovery cache: a read-mostly, generation-stamped
// cache over Broker.discover. Every admission used to pay a full
// registry Find — a locked map walk with per-filter float parsing, a
// clone of every match and a sort — for a query that is almost always
// identical to the previous one (same service name, same QoS floor).
// The cache keys entries on (service pattern, floor fingerprint) and
// remembers the selected service; a hit skips the registry entirely.
//
// Correctness argument. An entry is valid only while
//
//  1. the registry's mutation generation still equals the one read
//     *before* the entry's Find ran (Register/Deregister/Renew/Sweep
//     all bump it), and
//  2. the cached service's lease is still current on the broker's
//     clock (lease expiry changes Find results without a mutation).
//
// Under those two conditions the uncached Find would select the same
// service: with the generation unchanged the registered set is exactly
// as it was, time can only *remove* candidates (expire leases), and
// the cached service — first by key among the non-expired matches at
// fill time — survives by (2), so it is still the first match. A hit
// concurrent with a mutation is serializable as the admission ordered
// before the mutation, exactly as an uncached Find that won the race
// would be. Errors and empty result sets are never cached, so a
// malformed query fails identically on both paths, every time.
//
// Eviction is deterministic (FIFO by insertion order, bounded by cap)
// so runs that exercise the cache — the chaos harness in particular —
// stay byte-identical per seed.

// generationFinder is the optional Finder extension that makes
// discovery results cacheable. The in-process *registry.Registry
// implements it; remote finders (registry.Client over SOAP) do not,
// and stay uncached — the broker cannot observe their mutations.
type generationFinder interface {
	Finder
	Generation() uint64
}

// epochFinder is the further optional extension that makes cache
// entries safe across finder *restarts*. Generations restart from zero
// when a registry restarts, so a generation check alone can validate a
// pre-restart entry against a post-restart registry whose counter
// happens to have climbed back to the stamped value — serving a service
// key the new instance may never have registered. An epoch names the
// instance itself; entries stamped with a dead instance's epoch can
// never validate. Finders without an epoch get epoch 0 throughout,
// which degrades to the historical generation-only check.
type epochFinder interface {
	Epoch() uint64
}

// defDiscoveryCacheCap bounds the cache: larger than any realistic
// number of distinct (service, floor) shapes in flight, small enough
// that the FIFO order slice stays cheap.
const defDiscoveryCacheCap = 1024

// discoveryKey fingerprints a query without allocating: the service
// pattern plus the four floor dimensions that become filters.
type discoveryKey struct {
	service             string
	cpu, mem, disk, bwd float64
}

// discoveryEntry is an immutable cache record: once stored it is never
// mutated, so readers may use it after dropping the cache lock.
type discoveryEntry struct {
	// query is the prebuilt registry.Query for this key — including the
	// trimFloat rendering of every filter value — hoisted here so a
	// refill after invalidation reuses it instead of rebuilding.
	query registry.Query
	// key identifies the selected service (Find's first match).
	key registry.Key
	// leaseUntil is the selected service's lease at fill time (zero =
	// no lease); a hit requires it to still be current.
	leaseUntil time.Time
	// gen is the registry generation read before the fill's Find.
	gen uint64
	// epoch is the finder instance's epoch at the same point (0 when
	// the finder has no epoch).
	epoch uint64
}

type discoveryCache struct {
	finder generationFinder
	// epochOf reads the finder's instance epoch (constant 0 for finders
	// without one), resolved once here to keep the hot path assert-free.
	epochOf func() uint64
	cap     int

	hits      *obs.Counter
	misses    *obs.Counter
	evictions *obs.Counter

	mu      sync.RWMutex
	entries map[discoveryKey]*discoveryEntry
	order   []discoveryKey // insertion order, for deterministic FIFO eviction
}

func newDiscoveryCache(f generationFinder, reg *obs.Registry) *discoveryCache {
	epochOf := func() uint64 { return 0 }
	if ef, ok := f.(epochFinder); ok {
		epochOf = ef.Epoch
	}
	return &discoveryCache{
		finder:  f,
		epochOf: epochOf,
		cap:     defDiscoveryCacheCap,
		hits: reg.Counter("gqosm_discovery_cache_hits_total",
			"Discovery queries answered from the generation-stamped cache"),
		misses: reg.Counter("gqosm_discovery_cache_misses_total",
			"Discovery queries that fell through to a registry Find"),
		evictions: reg.Counter("gqosm_discovery_cache_evictions_total",
			"Discovery cache entries evicted by the FIFO bound"),
		entries: make(map[discoveryKey]*discoveryEntry),
	}
}

func discoveryKeyFor(service string, floor resource.Capacity) discoveryKey {
	return discoveryKey{
		service: service,
		cpu:     floor.CPU,
		mem:     floor.MemoryMB,
		disk:    floor.DiskGB,
		bwd:     floor.BandwidthMbps,
	}
}

// buildDiscoveryQuery renders the registry query for a key: the name
// pattern plus one ≥ filter per positive floor dimension.
func buildDiscoveryQuery(k discoveryKey) registry.Query {
	q := registry.Query{NamePattern: k.service}
	for _, pair := range [...]struct {
		prop string
		v    float64
	}{
		{"cpu-nodes", k.cpu},
		{"memory-mb", k.mem},
		{"disk-gb", k.disk},
		{"bandwidth-mbps", k.bwd},
	} {
		if pair.v > 0 {
			q.Filters = append(q.Filters, registry.Filter{
				Name: pair.prop, Op: registry.OpGe, Value: trimFloat(pair.v),
			})
		}
	}
	return q
}

// lookup returns the cached selection for k when it is still valid:
// same finder instance (epoch), registry generation unchanged since the
// fill, and the selected service's lease current at now.
func (c *discoveryCache) lookup(k discoveryKey, now time.Time) (registry.Key, bool) {
	epoch := c.epochOf()
	gen := c.finder.Generation()
	c.mu.RLock()
	e, ok := c.entries[k]
	c.mu.RUnlock()
	if !ok || e.epoch != epoch || e.gen != gen ||
		(!e.leaseUntil.IsZero() && !now.Before(e.leaseUntil)) {
		c.misses.Inc()
		return "", false
	}
	c.hits.Inc()
	return e.key, true
}

// queryFor returns the prebuilt query for k when a (possibly stale)
// entry holds one, building it otherwise. Queries are immutable once
// built — Find only reads them — so sharing across refills is safe.
func (c *discoveryCache) queryFor(k discoveryKey) registry.Query {
	c.mu.RLock()
	e, ok := c.entries[k]
	c.mu.RUnlock()
	if ok {
		return e.query
	}
	return buildDiscoveryQuery(k)
}

// stamp reads the finder's instance epoch and mutation counter. Callers
// filling the cache must read both BEFORE running Find: a mutation (or
// restart) between the read and the Find stores a stale stamp and the
// next lookup misses (safe); reading after the Find could stamp stale
// data current.
func (c *discoveryCache) stamp() (epoch, gen uint64) {
	return c.epochOf(), c.finder.Generation()
}

// store records the Find outcome for k. Refilling an existing key
// replaces the entry in place (keeping its FIFO position); a new key
// may evict the oldest entry.
func (c *discoveryCache) store(k discoveryKey, e *discoveryEntry) {
	c.mu.Lock()
	if _, exists := c.entries[k]; !exists {
		if len(c.order) >= c.cap {
			oldest := c.order[0]
			copy(c.order, c.order[1:])
			c.order = c.order[:len(c.order)-1]
			delete(c.entries, oldest)
			c.evictions.Inc()
		}
		c.order = append(c.order, k)
	}
	c.entries[k] = e
	c.mu.Unlock()
}
