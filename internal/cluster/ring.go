package cluster

// Consistent-hash ring for the front tier's placement. Each slot
// contributes hashReplicas virtual points (FNV-1a over
// "domain#replica"), and a client key routes to the first point at or
// past its own hash, wrapping around — the classic ring, so adding or
// removing one broker remaps only the keys that landed on its arcs.

import (
	"hash/fnv"
	"slices"
	"sort"
	"strconv"
)

// hashReplicas is the number of virtual points per broker on the ring.
const hashReplicas = 64

type ringPoint struct {
	hash uint64
	slot int
}

type hashRing struct {
	points []ringPoint
}

// newHashRing builds a ring with hashReplicas virtual points per domain.
// Slot order follows the domains slice index.
func newHashRing(domains []string) *hashRing {
	r := &hashRing{points: make([]ringPoint, 0, len(domains)*hashReplicas)}
	for i, d := range domains {
		for v := 0; v < hashReplicas; v++ {
			r.points = append(r.points, ringPoint{hash: hashKey(d + "#" + strconv.Itoa(v)), slot: i})
		}
	}
	sort.Slice(r.points, func(a, b int) bool {
		if r.points[a].hash != r.points[b].hash {
			return r.points[a].hash < r.points[b].hash
		}
		return r.points[a].slot < r.points[b].slot
	})
	return r
}

// order returns every distinct slot in ring order starting from key's
// position: the first entry is the key's home, the rest are the
// fallback sequence a re-route walks.
func (r *hashRing) order(key string, slots int) []int {
	out := make([]int, 0, slots)
	if len(r.points) == 0 {
		return out
	}
	h := hashKey(key)
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	for i := 0; i < len(r.points) && len(out) < slots; i++ {
		p := r.points[(start+i)%len(r.points)]
		if !slices.Contains(out, p.slot) {
			out = append(out, p.slot)
		}
	}
	return out
}

func hashKey(s string) uint64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(s))
	return h.Sum64()
}
