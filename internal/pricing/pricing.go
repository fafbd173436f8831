// Package pricing implements the G-QoSM cost model (paper §5.3): every QoS
// parameter p_i has a constant unit rate c_i set by the pricing formula of
// the user's service class, the monetary cost of one parameter is
// cost(p_i) = c_i · p_i, and the cost of a service's QoS set is
// Σ_i c_i · p_i. The broker's optimization heuristic maximizes the sum of
// these service costs across active services, and the pricing component
// "plays a major role in proposing new QoS offers" during re-negotiation —
// including the promotion offers of §4 scenario 2.
package pricing

import (
	"fmt"
	"sync"
	"time"

	"gqosm/internal/resource"
	"gqosm/internal/sla"
)

// Rates holds the per-unit rate c_i for each resource dimension.
type Rates struct {
	// PerCPUNode is the rate per processor node per session.
	PerCPUNode float64
	// PerMemoryMB is the rate per megabyte of memory.
	PerMemoryMB float64
	// PerDiskGB is the rate per gigabyte of disk.
	PerDiskGB float64
	// PerMbps is the rate per Mbps of bandwidth.
	PerMbps float64
}

// Rate returns c_i for dimension k.
func (r Rates) Rate(k resource.Kind) float64 {
	switch k {
	case resource.CPU:
		return r.PerCPUNode
	case resource.MemoryMB:
		return r.PerMemoryMB
	case resource.DiskGB:
		return r.PerDiskGB
	case resource.BandwidthMbps:
		return r.PerMbps
	default:
		return 0
	}
}

// Cost returns Σ_i c_i · p_i for the capacity c.
func (r Rates) Cost(c resource.Capacity) float64 {
	total := 0.0
	for _, k := range resource.Kinds {
		total += r.Rate(k) * c.Get(k)
	}
	return total
}

// DefaultRates are the rates used by examples and experiments: chosen so a
// §5.6-scale request (10 nodes, 2 GB, 15 GB disk, 667 Mbps aggregate) costs
// a round ~100 units for the guaranteed class.
var DefaultRates = Rates{
	PerCPUNode:  4.0,
	PerMemoryMB: 0.005,
	PerDiskGB:   0.2,
	PerMbps:     0.05,
}

// Model is the class-aware pricing formula: base rates scaled by a
// per-class multiplier (the paper: "users who are willing to pay different
// amounts to access Grid services" and providers that "alter their
// provision costs" per class).
type Model struct {
	Base Rates
	// ClassFactor scales the base rates per service class. Guaranteed
	// service costs more than controlled-load, which costs more than
	// best-effort.
	ClassFactor map[sla.Class]float64
	// PromotionDiscount is the fractional discount applied to the
	// *upgrade increment* in a promotion offer (scenario 2c), e.g. 0.25
	// means the upgrade is offered at 75% of its list price.
	PromotionDiscount float64
}

// NewModel returns a model with the paper-motivated default class factors.
func NewModel(base Rates) *Model {
	return &Model{
		Base: base,
		ClassFactor: map[sla.Class]float64{
			sla.ClassGuaranteed:     1.5,
			sla.ClassControlledLoad: 1.0,
			sla.ClassBestEffort:     0.25,
		},
		PromotionDiscount: 0.25,
	}
}

// ClassRates returns the effective rates for a class.
func (m *Model) ClassRates(class sla.Class) Rates {
	f, ok := m.ClassFactor[class]
	if !ok {
		f = 1.0
	}
	return Rates{
		PerCPUNode:  m.Base.PerCPUNode * f,
		PerMemoryMB: m.Base.PerMemoryMB * f,
		PerDiskGB:   m.Base.PerDiskGB * f,
		PerMbps:     m.Base.PerMbps * f,
	}
}

// Cost returns the session cost of delivering capacity c to a client of
// the given class.
func (m *Model) Cost(class sla.Class, c resource.Capacity) float64 {
	return m.ClassRates(class).Cost(c)
}

// CostOfDocument prices an SLA at its currently allocated capacity,
// recursing into sub-SLAs of composite agreements.
func (m *Model) CostOfDocument(d *sla.Document) float64 {
	if len(d.SubSLAs) == 0 {
		return m.Cost(d.Class, d.Allocated)
	}
	total := 0.0
	for _, sub := range d.SubSLAs {
		total += m.CostOfDocument(sub)
	}
	return total
}

// PromotionOffer is a discounted upgrade proposed to a running service
// when released capacity becomes available (scenario 2c: "presenting
// promotion offers to existing services for upgrading their QoS to attract
// additional resource requests").
type PromotionOffer struct {
	SLA      sla.ID
	From, To resource.Capacity
	// ListPrice is the undiscounted price of the upgrade increment.
	ListPrice float64
	// OfferPrice is the discounted price actually proposed.
	OfferPrice float64
	Expires    time.Time
}

// Promotion builds a promotion offer for upgrading an SLA from its current
// allocation to the proposed capacity. It returns false when the proposal
// is not an upgrade or the SLA did not opt in to promotion offers.
func (m *Model) Promotion(d *sla.Document, to resource.Capacity, expires time.Time) (PromotionOffer, bool) {
	if !d.Adapt.PromotionOffers {
		return PromotionOffer{}, false
	}
	increment := to.Sub(d.Allocated)
	if !increment.IsNonNegative() || increment.IsZero() {
		return PromotionOffer{}, false
	}
	list := m.Cost(d.Class, increment)
	return PromotionOffer{
		SLA:        d.ID,
		From:       d.Allocated,
		To:         to,
		ListPrice:  list,
		OfferPrice: list * (1 - m.PromotionDiscount),
		Expires:    expires,
	}, true
}

// PenaltyFor computes the monetary penalty owed for a violation episode of
// the given duration below the SLA floor.
func PenaltyFor(p sla.Penalty, below time.Duration) float64 {
	return p.PerViolation + p.PerHourBelow*below.Hours()
}

// EntryKind labels ledger entries.
type EntryKind int

// Ledger entry kinds.
const (
	EntryCharge EntryKind = iota + 1 // revenue from a client
	EntryPenalty
	EntryPromotion // revenue from an accepted promotion offer
	EntryRefund
)

// String returns the entry-kind name.
func (k EntryKind) String() string {
	switch k {
	case EntryCharge:
		return "charge"
	case EntryPenalty:
		return "penalty"
	case EntryPromotion:
		return "promotion"
	case EntryRefund:
		return "refund"
	default:
		return fmt.Sprintf("entry(%d)", int(k))
	}
}

// Entry is one accounting record.
type Entry struct {
	Kind   EntryKind
	SLA    sla.ID
	Amount float64 // positive = provider revenue; positive penalties/refunds reduce NetRevenue
	At     time.Time
	Note   string
}

// Ledger accumulates the provider's accounting (the "QoS Accounting"
// function of Fig. 3). It is safe for concurrent use.
//
// Running totals (net revenue, per-kind sums) are maintained on every
// Record, so NetRevenue and Total are O(1) however long the ledger gets —
// the invariant oracle reads NetRevenue at every soak quiesce point, and
// the historical fold-over-all-entries made that O(run length²).
// Retention optionally bounds the entry list itself for long-run use;
// the running totals stay exact across evictions.
type Ledger struct {
	mu      sync.Mutex
	entries []Entry
	// retain bounds len(entries); 0 keeps everything (the default).
	retain int
	// evicted counts entries dropped by retention.
	evicted int64
	// net is the running charges+promotions−penalties−refunds.
	net float64
	// totals accumulates per-kind amounts (always positive magnitudes).
	totals map[EntryKind]float64
	// observer, when set, sees every entry at the end of Record while
	// l.mu is still held — the durability layer relies on that atomicity
	// to journal the entry in the same order it changed the aggregates.
	observer func(Entry)
}

// NewLedger returns an empty ledger.
func NewLedger() *Ledger { return &Ledger{totals: make(map[EntryKind]float64)} }

// SetRetention bounds the retained entry list to the most recent n
// records (0 restores unlimited retention). Aggregates — NetRevenue,
// Total — are unaffected: they are running sums over every entry ever
// recorded. Entries only sees what is retained.
func (l *Ledger) SetRetention(n int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if n < 0 {
		n = 0
	}
	l.retain = n
	l.trimLocked()
}

func (l *Ledger) trimLocked() {
	if l.retain <= 0 || len(l.entries) <= l.retain {
		return
	}
	drop := len(l.entries) - l.retain
	l.evicted += int64(drop)
	kept := make([]Entry, l.retain, l.retain*2)
	copy(kept, l.entries[drop:])
	l.entries = kept
}

// Record appends an entry.
func (l *Ledger) Record(e Entry) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.totals == nil {
		l.totals = make(map[EntryKind]float64)
	}
	switch e.Kind {
	case EntryCharge, EntryPromotion:
		l.net += e.Amount
	case EntryPenalty, EntryRefund:
		l.net -= e.Amount
	}
	l.totals[e.Kind] += e.Amount
	l.entries = append(l.entries, e)
	// Amortized trim: let the slice run to 2× the cap, then copy once.
	if l.retain > 0 && len(l.entries) >= 2*l.retain {
		l.trimLocked()
	}
	if l.observer != nil {
		l.observer(e)
	}
}

// SetObserver installs fn to be called with every entry at the end of
// Record, under the ledger lock (so the observed order is exactly the
// aggregate-update order). nil removes the observer. The callback must
// not call back into the ledger.
func (l *Ledger) SetObserver(fn func(Entry)) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.observer = fn
}

// State is the ledger's full exported state, for durability snapshots.
type State struct {
	Entries []Entry
	Retain  int
	Evicted int64
	Net     float64
	Totals  map[EntryKind]float64
}

// ExportWith calls fn with a deep copy of the ledger state while l.mu is
// held. Holding the lock through the callback lets a durability snapshot
// read its log fence inside fn, guaranteeing every entry is either in
// the exported state or journaled past the fence — never both, never
// neither.
func (l *Ledger) ExportWith(fn func(State)) {
	l.mu.Lock()
	defer l.mu.Unlock()
	st := State{
		Entries: append([]Entry(nil), l.entries...),
		Retain:  l.retain,
		Evicted: l.evicted,
		Net:     l.net,
		Totals:  make(map[EntryKind]float64, len(l.totals)),
	}
	for k, v := range l.totals {
		st.Totals[k] = v
	}
	fn(st)
}

// RestoreLedger rebuilds a ledger from exported state.
func RestoreLedger(st State) *Ledger {
	l := &Ledger{
		entries: append([]Entry(nil), st.Entries...),
		retain:  st.Retain,
		evicted: st.Evicted,
		net:     st.Net,
		totals:  make(map[EntryKind]float64, len(st.Totals)),
	}
	for k, v := range st.Totals {
		l.totals[k] = v
	}
	return l
}

// Charge records client revenue for an SLA.
func (l *Ledger) Charge(id sla.ID, amount float64, at time.Time, note string) {
	l.Record(Entry{Kind: EntryCharge, SLA: id, Amount: amount, At: at, Note: note})
}

// Penalize records a violation penalty paid by the provider.
func (l *Ledger) Penalize(id sla.ID, amount float64, at time.Time, note string) {
	l.Record(Entry{Kind: EntryPenalty, SLA: id, Amount: amount, At: at, Note: note})
}

// NetRevenue returns charges + promotions − penalties − refunds. It is a
// running sum over every entry ever recorded (retention does not affect
// it) and costs O(1).
func (l *Ledger) NetRevenue() float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.net
}

// Entries returns a copy of the retained entries in insertion order (all
// entries when retention is off).
func (l *Ledger) Entries() []Entry {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]Entry(nil), l.entries...)
}
