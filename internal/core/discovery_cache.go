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
//  1. the registry's generation still equals the one read *before* the
//     entry's Find ran (Register/Deregister/Renew/Sweep all draw a new
//     one, and no two registry instances ever share a value, so a
//     restarted registry never validates an old entry), and
//  2. the cached service's lease is still current on the broker's
//     clock (lease expiry changes Find results without a mutation).
//
// Under those two conditions a Find would select the same service: with
// the generation unchanged the registered set is exactly as it was, time
// can only *remove* candidates (expire leases), and the cached service —
// first by key among the non-expired matches at fill time — survives by
// (2), so it is still the first match. A hit concurrent with a mutation
// is serializable as the admission ordered before the mutation, exactly
// as a Find that won the race would be. Errors and empty result sets are
// never cached, so a malformed query fails identically every time.
//
// Eviction is deterministic (FIFO by insertion order, bounded by cap)
// so runs that exercise the cache — the chaos harness in particular —
// stay byte-identical per seed.

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
	// key identifies the selected service (Find's first match).
	key registry.Key
	// leaseUntil is the selected service's lease at fill time (zero =
	// no lease); a hit requires it to still be current.
	leaseUntil time.Time
	// gen is the registry generation read before the fill's Find.
	gen uint64
}

type discoveryCache struct {
	finder Finder
	cap    int

	hits      *obs.Counter
	misses    *obs.Counter
	evictions *obs.Counter

	mu      sync.RWMutex
	entries map[discoveryKey]*discoveryEntry
	order   []discoveryKey // insertion order, for deterministic FIFO eviction
}

func newDiscoveryCache(f Finder, reg *obs.Registry) *discoveryCache {
	return &discoveryCache{
		finder: f,
		cap:    defDiscoveryCacheCap,
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
// registry generation unchanged since the fill, and the selected
// service's lease current at now.
func (c *discoveryCache) lookup(k discoveryKey, now time.Time) (registry.Key, bool) {
	gen := c.finder.Generation()
	c.mu.RLock()
	e, ok := c.entries[k]
	c.mu.RUnlock()
	if !ok || e.gen != gen || (!e.leaseUntil.IsZero() && !now.Before(e.leaseUntil)) {
		c.misses.Inc()
		return "", false
	}
	c.hits.Inc()
	return e.key, true
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
