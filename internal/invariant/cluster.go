package invariant

// Cluster-level invariants: the single-broker rules lifted over a set of
// broker instances, plus the two conditions only a cluster can break —
// one owner per SLA and conservation of the summed capacity.
//
// Like rules 3/4 of the single-broker oracle, the cross-broker rules
// compare independently locked structures and only hold at quiesce
// points — call CheckCluster from serial drivers between steps, or from
// concurrent harnesses after a drain. A hand-off in flight (intent
// journaled, target committed, source not yet torn down) is NOT a
// quiesce point: both brokers legitimately hold the session until
// CompleteHandoff runs.

import (
	"fmt"
	"sort"

	"gqosm/internal/core"
	"gqosm/internal/resource"
)

// CheckCluster runs the per-broker invariants on every broker (details
// prefixed with the owning domain) plus the cluster-level rules:
//
//   - cluster-double-owner: a non-terminal session ID lives on at most
//     one broker — the hand-off protocol's "exactly one owner" promise;
//   - cluster-double-grant: a guaranteed allocator grant for any ID
//     exists on at most one broker (a torn hand-off that left capacity
//     booked twice is caught even before the session tables disagree);
//   - cluster-overcommit: the summed guaranteed demand across all
//     brokers fits the summed deliverable capacity — conservation for
//     the whole cluster no matter how placement spread the admissions.
func CheckCluster(brokers ...*core.Broker) error {
	return wrap(clusterViolations(brokers))
}

func clusterViolations(brokers []*core.Broker) []Violation {
	var vs []Violation

	for _, b := range brokers {
		for _, v := range brokerViolations(b) {
			v.Detail = fmt.Sprintf("broker %q: %s", b.Domain(), v.Detail)
			vs = append(vs, v)
		}
	}

	// One owner per live SLA ID across the whole cluster.
	owners := make(map[string][]string)
	for _, b := range brokers {
		for _, doc := range b.Sessions(nil) {
			if !doc.State.Terminal() {
				owners[string(doc.ID)] = append(owners[string(doc.ID)], b.Domain())
			}
		}
	}
	var dup []string
	for id, ds := range owners {
		if len(ds) > 1 {
			sort.Strings(ds)
			dup = append(dup, fmt.Sprintf("%s on %v", id, ds))
		}
	}
	sort.Strings(dup)
	for _, d := range dup {
		vs = append(vs, Violation{
			Rule:   "cluster-double-owner",
			Detail: "live session owned by multiple brokers: " + d,
		})
	}

	// One guaranteed grant per ID across every broker's allocators.
	granted := make(map[string][]string)
	for _, b := range brokers {
		for _, user := range b.Allocator().GuaranteedUsers() {
			granted[user] = append(granted[user], b.Domain())
		}
	}
	var dg []string
	for id, ds := range granted {
		if len(ds) > 1 {
			sort.Strings(ds)
			dg = append(dg, fmt.Sprintf("%s on %v", id, ds))
		}
	}
	sort.Strings(dg)
	for _, d := range dg {
		vs = append(vs, Violation{
			Rule:   "cluster-double-grant",
			Detail: "guaranteed grant booked on multiple brokers: " + d,
		})
	}

	// Conservation over the summed cluster capacity.
	var clusterTotal, clusterMax resource.Capacity
	for _, b := range brokers {
		gTotal, gMax := guaranteedDemand(b.Allocator())
		clusterTotal = clusterTotal.Add(gTotal)
		clusterMax = clusterMax.Add(gMax)
	}
	if !clusterTotal.FitsIn(clusterMax) {
		vs = append(vs, Violation{
			Rule:   "cluster-overcommit",
			Detail: fmt.Sprintf("cluster guaranteed %v exceeds deliverable %v", clusterTotal, clusterMax),
		})
	}
	return vs
}
