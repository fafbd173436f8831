package core

import (
	"sort"
	"sync"

	"gqosm/internal/pricing"
	"gqosm/internal/resource"
	"gqosm/internal/sla"
)

// This file is the sharding layer of the broker: the domain's Algorithm-1
// state is partitioned into N independent shards, each with its own
// capacity plan, allocator, session sub-table and mutex, so admissions on
// different shards never contend. A placement layer routes each new
// request to the least-loaded shard (deterministic tie-break by shard
// index) and falls back across shards on ErrCannotHonor before declining —
// the same capacity-error forwarding the federation applies between
// domains, applied inside one domain. The Broker itself remains a thin
// coordinator owning only the cross-shard concerns: global SLA-ID issue,
// the activity log, the RunOptimizer/issuePromotions/afterRelease sweeps
// and the invariant debug hook.
//
// Lock discipline: sh.mu → sh.alloc.mu → (clock, ledger, pool, NRM), and
// routeMu / beMu / evMu / debugMu are leaf locks. Cross-shard sweeps
// (Close, Sessions, ExpireDue, the restore pass, session gauges) acquire
// shard locks strictly in ascending shard-index order and never hold two
// shard locks at once: each shard is locked, read, and unlocked before the
// next, with any follow-up work done lock-free on the collected snapshot.

// shard is one slice of the domain: an independent Algorithm-1 partition
// with its own session sub-table. All per-session state (sessions and
// open promotion offers) lives on the shard that admitted the SLA.
type shard struct {
	index int
	alloc *Allocator

	mu       sync.Mutex
	sessions map[sla.ID]*session
	// promotions holds open scenario-2(c) offers for this shard's SLAs.
	promotions map[sla.ID]pricing.PromotionOffer
}

// Split partitions the plan into n equal shares. Each pool is divided by
// n; the last share takes the remainder so the shares always sum exactly
// to the original plan (no capacity is lost to floating-point drift).
// n ≤ 1 returns the plan itself.
func (p CapacityPlan) Split(n int) []CapacityPlan {
	if n <= 1 {
		return []CapacityPlan{p}
	}
	per := CapacityPlan{
		Guaranteed: p.Guaranteed.Scale(1 / float64(n)),
		Adaptive:   p.Adaptive.Scale(1 / float64(n)),
		BestEffort: p.BestEffort.Scale(1 / float64(n)),
	}
	out := make([]CapacityPlan, n)
	rem := p
	for i := 0; i < n-1; i++ {
		out[i] = per
		rem = CapacityPlan{
			Guaranteed: rem.Guaranteed.Sub(per.Guaranteed),
			Adaptive:   rem.Adaptive.Sub(per.Adaptive),
			BestEffort: rem.BestEffort.Sub(per.BestEffort),
		}
	}
	out[n-1] = rem
	return out
}

// shardFor resolves a session ID to the shard that admitted it, or nil
// when the ID is unknown. Sessions are never removed from their shard
// (terminal sessions stay queryable), so a route, once installed, is
// stable for the session's lifetime.
func (b *Broker) shardFor(id sla.ID) *shard {
	b.routeMu.RLock()
	defer b.routeMu.RUnlock()
	return b.route[id]
}

// rankShards orders shard indices for a new admission: least-loaded first
// by Allocator.LoadFactor, ties broken by ascending index, shards whose
// admission bound can never fit floor dropped — compensation frees
// allocations but cannot raise the bound.
func rankShards(load []float64, bound []resource.Capacity, floor resource.Capacity) []int {
	ranked := make([]int, 0, len(load))
	for i := range load {
		if floor.FitsIn(bound[i]) {
			ranked = append(ranked, i)
		}
	}
	sort.SliceStable(ranked, func(i, j int) bool { return load[ranked[i]] < load[ranked[j]] })
	return ranked
}

// placementOrder returns the shards to try for a new admission, most
// attractive first: rankShards' order, except that a non-zero 1-based hint
// moves that shard to the front even when hopeless (an explicit hint is a
// request to try that shard, and its refusal is informative), and when
// every shard is hopeless the least-loaded one is returned alone so the
// caller still gets the allocator's precise refusal.
func (b *Broker) placementOrder(hint int, floor resource.Capacity) []*shard {
	if len(b.shards) == 1 {
		return b.shards
	}
	load := make([]float64, len(b.shards))
	bound := make([]resource.Capacity, len(b.shards))
	for i, sh := range b.shards {
		load[i], bound[i] = sh.alloc.LoadFactor(), sh.alloc.AdmissionBound()
	}
	ranked := rankShards(load, bound, floor)
	var hinted *shard
	if hint >= 1 && hint <= len(b.shards) {
		hinted = b.shards[hint-1]
	}
	out := make([]*shard, 0, len(ranked)+1)
	if hinted != nil {
		out = append(out, hinted)
	}
	for _, idx := range ranked {
		if sh := b.shards[idx]; sh != hinted {
			out = append(out, sh)
		}
	}
	if len(out) == 0 {
		best := 0
		for i := 1; i < len(load); i++ {
			if load[i] < load[best] {
				best = i
			}
		}
		out = append(out, b.shards[best])
	}
	return out
}

// Allocators returns every shard's Algorithm-1 engine in shard-index
// order. Allocator() remains shard 0 for single-shard callers.
func (b *Broker) Allocators() []*Allocator {
	out := make([]*Allocator, len(b.shards))
	for i, sh := range b.shards {
		out[i] = sh.alloc
	}
	return out
}

// ShardSessionCounts returns the number of sessions (any state) homed on
// each shard, in shard-index order.
func (b *Broker) ShardSessionCounts() []int {
	out := make([]int, len(b.shards))
	for i, sh := range b.shards {
		sh.mu.Lock()
		out[i] = len(sh.sessions)
		sh.mu.Unlock()
	}
	return out
}
