// Package cluster is the multi-broker front tier: it routes admissions
// across N broker instances (consistent-hash placement), falls back
// along the client's ring order one broker at a time when the placed
// broker declines, and drives session hand-off for rebalancing. With a
// single slot the front degenerates to the plain broker: identical
// outcomes.
package cluster

import (
	"errors"
	"fmt"
	"sync"

	"gqosm/internal/core"
	"gqosm/internal/gram"
	"gqosm/internal/sla"
)

// Placement names the front tier's routing policy. There is one; the
// type and Config.Placement stay only because bench/env.go:96 spells the
// literal — a benchmark-archetype PR drops it there and then the type goes.
type Placement int

// PlaceHash routes each client by consistent hash: a client's admissions
// land on the same broker run after run, independent of arrival order.
const PlaceHash Placement = 0

func (Placement) String() string { return "hash" }

// Config is the front tier's configuration.
type Config struct {
	// Placement is the routing policy, always PlaceHash.
	Placement Placement
}

// ErrNoBrokerAvailable is returned when every slot is recovering or
// absent.
var ErrNoBrokerAvailable = errors.New("cluster: no broker available")

// Front is the thin routing tier over the cluster's slots. Safe for
// concurrent use.
type Front struct {
	slots []*Slot
	ring  *hashRing
	byDom map[string]int

	mu     sync.Mutex
	owners map[sla.ID]int
}

// New assembles a front over the given slots. Domains must be unique;
// slot order is the ring's slot numbering.
func New(_ Config, slots ...*Slot) (*Front, error) {
	if len(slots) == 0 {
		return nil, errors.New("cluster: front needs at least one slot")
	}
	byDom := make(map[string]int, len(slots))
	domains := make([]string, len(slots))
	for i, s := range slots {
		if _, dup := byDom[s.Domain()]; dup {
			return nil, fmt.Errorf("cluster: duplicate domain %q", s.Domain())
		}
		byDom[s.Domain()] = i
		domains[i] = s.Domain()
	}
	return &Front{
		slots:  slots,
		ring:   newHashRing(domains),
		byDom:  byDom,
		owners: make(map[sla.ID]int),
	}, nil
}

// route returns the slot indices to try for a client, placed-first: the
// client's consistent-hash order, minus the slots that are recovering —
// the re-route the transient peer gate promises.
func (f *Front) route(client string) []int {
	order := f.ring.order(client, len(f.slots))
	live := order[:0]
	for _, i := range order {
		if !f.slots[i].Recovering() {
			live = append(live, i)
		}
	}
	return live
}

// RequestService admits a request through the cluster by walking the
// client's route one slot at a time (core.WalkPeers): the first offer
// wins, the home slot's refusal ends the walk unless core.Forwardable
// accepts it, and a later slot's refusal moves the walk on. The offer's
// Domain names the owning broker; the front records it so lifecycle
// calls route there.
func (f *Front) RequestService(req core.Request) (*core.FederatedOffer, error) {
	order := f.route(req.Client)
	if len(order) == 0 {
		return nil, ErrNoBrokerAvailable
	}
	var buf [8]core.Peer // keeps a small cluster's walk off the heap
	peers := buf[:0]
	for _, idx := range order {
		peers = append(peers, f.slots[idx])
	}
	offer, n, err := core.WalkPeers(peers, func(_ int, p core.Peer) (*core.Offer, error) {
		return p.PeerRequest(req)
	})
	if err != nil {
		return nil, err
	}
	f.mu.Lock()
	f.owners[offer.SLA.ID] = order[n]
	f.mu.Unlock()
	return &core.FederatedOffer{Offer: *offer, Domain: peers[n].PeerDomain(), Forwarded: n > 0}, nil
}

// Owner reports which domain hosts a session the front admitted or
// migrated.
func (f *Front) Owner(id sla.ID) (string, bool) {
	f.mu.Lock()
	idx, ok := f.owners[id]
	f.mu.Unlock()
	if !ok {
		return "", false
	}
	return f.slots[idx].Domain(), true
}

// ownerBroker resolves a session to its broker.
func (f *Front) ownerBroker(id sla.ID) (*core.Broker, int, error) {
	f.mu.Lock()
	idx, ok := f.owners[id]
	f.mu.Unlock()
	if !ok {
		return nil, 0, fmt.Errorf("%w: %s", core.ErrUnknownSession, id)
	}
	return f.slots[idx].Broker(), idx, nil
}

func (f *Front) forget(id sla.ID) {
	f.mu.Lock()
	delete(f.owners, id)
	f.mu.Unlock()
}

// Accept confirms a proposed SLA on its owning broker.
func (f *Front) Accept(id sla.ID) error {
	b, _, err := f.ownerBroker(id)
	if err != nil {
		return err
	}
	return b.Accept(id)
}

// Invoke launches a session's service on its owning broker.
func (f *Front) Invoke(id sla.ID) (gram.Job, error) {
	b, _, err := f.ownerBroker(id)
	if err != nil {
		return gram.Job{}, err
	}
	return b.Invoke(id)
}

// Terminate clears a session on its owning broker.
func (f *Front) Terminate(id sla.ID, reason string) error {
	b, _, err := f.ownerBroker(id)
	if err != nil {
		return err
	}
	if err := b.Terminate(id, reason); err != nil {
		return err
	}
	f.forget(id)
	return nil
}

// Quiesce does nothing: RequestService runs no background work, so
// there is nothing to wait for. It stays only because the benchmark
// harness still calls it; ROADMAP item 7 deletes it.
func (f *Front) Quiesce() {}

// Migrate hands session id off to the named target domain: drain on the
// source (BeginHandoff), re-admit under the same SLA ID on the target
// (ImportSession), then tear the source copy down (CompleteHandoff).
// Both sides journal their intent. core.Recover resolves a target that
// crashed mid-import; a source that crashed keeps its out-intent, which
// blocks the session's teardown until CompleteHandoff or AbortHandoff is
// called on it. The front does not reconcile a crashed hand-off.
func (f *Front) Migrate(id sla.ID, target string) error {
	src, srcIdx, err := f.ownerBroker(id)
	if err != nil {
		return err
	}
	tIdx, ok := f.byDom[target]
	if !ok {
		return fmt.Errorf("cluster: unknown target domain %q", target)
	}
	if tIdx == srcIdx {
		return fmt.Errorf("cluster: session %s already lives on %q", id, target)
	}
	tgt := f.slots[tIdx].Broker()
	if f.slots[tIdx].Recovering() {
		return fmt.Errorf("%w: slot %q", core.ErrPeerUnavailable, target)
	}

	st, err := src.BeginHandoff(id, target)
	if err != nil {
		return err
	}
	if err := tgt.ImportSession(st); err != nil {
		_ = src.AbortHandoff(id)
		return err
	}
	if err := src.CompleteHandoff(id); err != nil {
		return err
	}
	f.mu.Lock()
	f.owners[id] = tIdx
	f.mu.Unlock()
	return nil
}

// Loads reports every slot's load.
func (f *Front) Loads() []core.LoadReport {
	out := make([]core.LoadReport, len(f.slots))
	for i, s := range f.slots {
		out[i] = s.broker.LoadReport()
	}
	return out
}
