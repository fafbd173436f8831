// Package cluster is the multi-broker front tier: it routes admissions
// across N broker instances (consistent-hash placement), falls back
// across brokers through the existing federation fan-out when the placed
// broker declines, and drives session hand-off for rebalancing. With a
// single slot the front degenerates to the plain broker: one federation
// with zero peers, identical outcomes.
package cluster

import (
	"errors"
	"fmt"
	"sort"
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
	feds   map[int]*fedEntry
	owners map[sla.ID]int
}

// fedEntry caches the federation built around one local slot's broker;
// it is rebuilt when Swap installs a recovered instance.
type fedEntry struct {
	b   *core.Broker
	fed *core.Federation
}

// New assembles a front over the given slots. Domains must be unique;
// slot order is the federation's peer registration order, so it decides
// which broker wins a fallback race.
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
		feds:   make(map[int]*fedEntry),
		owners: make(map[sla.ID]int),
	}, nil
}

// Slots returns the cluster members in registration order.
func (f *Front) Slots() []*Slot { return f.slots }

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

// federationFor returns the cached federation homed on slot idx's local
// broker, with every other slot registered as a peer in ascending slot
// order — so the cross-broker fallback reuses the federation fan-out
// (concurrent peer calls under the home broker's RetryPolicy,
// registration-order first-success, PeerReject retraction) unchanged.
func (f *Front) federationFor(idx int, home *core.Broker) *core.Federation {
	f.mu.Lock()
	defer f.mu.Unlock()
	if e, ok := f.feds[idx]; ok && e.b == home {
		return e.fed
	}
	fed := core.NewFederation(home)
	for i, s := range f.slots {
		if i == idx {
			continue
		}
		// The only AddPeer failure is a duplicate domain, which New
		// already rejected.
		_ = fed.AddPeer(s)
	}
	f.feds[idx] = &fedEntry{b: home, fed: fed}
	return fed
}

// RequestService admits a request through the cluster: the placed
// broker first, then the federation fallback across the remaining
// slots. The returned offer's Domain names the owning broker; the front
// records it so lifecycle calls route there.
func (f *Front) RequestService(req core.Request) (*core.FederatedOffer, error) {
	order := f.route(req.Client)
	if len(order) == 0 {
		return nil, ErrNoBrokerAvailable
	}
	homeIdx := order[0]
	offer, err := f.federationFor(homeIdx, f.slots[homeIdx].Broker()).RequestService(req)
	if err != nil {
		return nil, err
	}
	if idx, ok := f.byDom[offer.Domain]; ok {
		f.mu.Lock()
		f.owners[offer.SLA.ID] = idx
		f.mu.Unlock()
	}
	return offer, nil
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

// Quiesce waits for every slot federation's background fan-out work
// (slow peer answers, loser retraction) to finish. Harnesses call it
// before a final invariant checkpoint.
func (f *Front) Quiesce() {
	f.mu.Lock()
	feds := make([]*core.Federation, 0, len(f.feds))
	for _, e := range f.feds {
		feds = append(feds, e.fed)
	}
	f.mu.Unlock()
	for _, fed := range feds {
		fed.Quiesce()
	}
}

// Migrate hands session id off to the named target domain: drain on the
// source (BeginHandoff), re-admit under the same SLA ID on the target
// (ImportSession), then tear the source copy down (CompleteHandoff).
// Both sides journal their intent, so a crash at any point recovers to
// exactly one owner (ReconcileHandoffs finishes or aborts the rest).
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

// ReconcileHandoffs resolves outbound intents left by crashes: for each
// local slot's open hand-off, the migration is completed when the
// target broker holds the session live (the import committed before the
// crash) and aborted otherwise. Call it after recovering a crashed
// member. Returns how many hand-offs were completed and aborted.
func (f *Front) ReconcileHandoffs() (completed, aborted int) {
	for srcIdx, slot := range f.slots {
		src := slot.Broker()
		if slot.Recovering() {
			continue
		}
		outs := src.HandoffsOut()
		ids := make([]sla.ID, 0, len(outs))
		for id := range outs {
			ids = append(ids, id)
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		for _, id := range ids {
			target := outs[id]
			tIdx, known := f.byDom[target]
			imported := false
			if known {
				if !f.slots[tIdx].Recovering() {
					if doc, err := f.slots[tIdx].Broker().Session(id); err == nil && !doc.State.Terminal() {
						imported = true
					}
				}
			}
			if imported {
				if err := src.CompleteHandoff(id); err == nil {
					completed++
					f.mu.Lock()
					f.owners[id] = tIdx
					f.mu.Unlock()
				}
				continue
			}
			if err := src.AbortHandoff(id); err == nil {
				aborted++
				f.mu.Lock()
				f.owners[id] = srcIdx
				f.mu.Unlock()
			}
		}
	}
	return completed, aborted
}

// Loads reports every slot's load (best effort: unreachable slots
// report Recovering with zero load).
func (f *Front) Loads() []core.LoadReport {
	out := make([]core.LoadReport, len(f.slots))
	for i, s := range f.slots {
		r, err := s.Load()
		if err != nil {
			r = core.LoadReport{Domain: s.Domain(), Recovering: true}
		}
		out[i] = r
	}
	return out
}
