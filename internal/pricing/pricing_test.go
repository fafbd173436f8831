package pricing

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"gqosm/internal/resource"
	"gqosm/internal/sla"
)

var at = time.Date(2003, 6, 16, 9, 0, 0, 0, time.UTC)

func TestRatesCost(t *testing.T) {
	r := Rates{PerCPUNode: 2, PerMemoryMB: 0.01, PerDiskGB: 0.5, PerMbps: 0.1}
	c := resource.Capacity{CPU: 10, MemoryMB: 100, DiskGB: 4, BandwidthMbps: 50}
	want := 2*10 + 0.01*100 + 0.5*4 + 0.1*50.0
	if got := r.Cost(c); math.Abs(got-want) > 1e-9 {
		t.Errorf("Cost = %g, want %g", got, want)
	}
	if got := r.Cost(resource.Capacity{}); got != 0 {
		t.Errorf("Cost(empty) = %g", got)
	}
	if got := r.Rate(resource.Kind(99)); got != 0 {
		t.Errorf("Rate(unknown) = %g", got)
	}
}

// Property: cost is linear — cost(a+b) = cost(a)+cost(b) and
// cost(k·a) = k·cost(a).
func TestCostLinearity(t *testing.T) {
	r := DefaultRates
	f := func(a1, a2, b1, b2 uint8, kRaw uint8) bool {
		a := resource.Capacity{CPU: float64(a1), MemoryMB: float64(a2)}
		b := resource.Capacity{DiskGB: float64(b1), BandwidthMbps: float64(b2)}
		k := float64(kRaw % 16)
		if math.Abs(r.Cost(a.Add(b))-(r.Cost(a)+r.Cost(b))) > 1e-6 {
			return false
		}
		return math.Abs(r.Cost(a.Scale(k))-k*r.Cost(a)) < 1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestModelClassOrdering(t *testing.T) {
	m := NewModel(DefaultRates)
	c := resource.Capacity{CPU: 10, MemoryMB: 2048, DiskGB: 15}
	g := m.Cost(sla.ClassGuaranteed, c)
	cl := m.Cost(sla.ClassControlledLoad, c)
	be := m.Cost(sla.ClassBestEffort, c)
	if !(g > cl && cl > be && be > 0) {
		t.Errorf("class costs not ordered: g=%g cl=%g be=%g", g, cl, be)
	}
	// Unknown class gets factor 1 (same as controlled-load default).
	if got := m.Cost(sla.Class(99), c); math.Abs(got-cl) > 1e-9 {
		t.Errorf("unknown class cost = %g, want %g", got, cl)
	}
}

func TestPromotion(t *testing.T) {
	m := NewModel(DefaultRates)
	d := &sla.Document{
		ID:        "p1",
		Class:     sla.ClassControlledLoad,
		Allocated: resource.Nodes(10),
		Adapt:     sla.AdaptationOptions{PromotionOffers: true},
	}
	offer, ok := m.Promotion(d, resource.Nodes(15), at.Add(time.Hour))
	if !ok {
		t.Fatal("Promotion refused a valid upgrade")
	}
	wantList := m.Cost(sla.ClassControlledLoad, resource.Nodes(5))
	if math.Abs(offer.ListPrice-wantList) > 1e-9 {
		t.Errorf("ListPrice = %g, want %g", offer.ListPrice, wantList)
	}
	if math.Abs(offer.OfferPrice-wantList*0.75) > 1e-9 {
		t.Errorf("OfferPrice = %g, want %g", offer.OfferPrice, wantList*0.75)
	}
	if offer.SLA != "p1" || !offer.To.Equal(resource.Nodes(15)) {
		t.Errorf("offer = %+v", offer)
	}
}

func TestPromotionRefusals(t *testing.T) {
	m := NewModel(DefaultRates)
	base := &sla.Document{
		ID: "p1", Class: sla.ClassControlledLoad,
		Allocated: resource.Nodes(10),
		Adapt:     sla.AdaptationOptions{PromotionOffers: true},
	}

	// Not opted in.
	noOpt := base.Clone()
	noOpt.Adapt.PromotionOffers = false
	if _, ok := m.Promotion(noOpt, resource.Nodes(15), at); ok {
		t.Error("Promotion offered to non-opted-in SLA")
	}
	// Downgrade is not a promotion.
	if _, ok := m.Promotion(base, resource.Nodes(5), at); ok {
		t.Error("Promotion offered for a downgrade")
	}
	// No change is not a promotion.
	if _, ok := m.Promotion(base, resource.Nodes(10), at); ok {
		t.Error("Promotion offered for identical capacity")
	}
	// Mixed up/down is not a promotion.
	mixed := resource.Capacity{CPU: 15, MemoryMB: -1}.Add(base.Allocated)
	if _, ok := m.Promotion(base, mixed, at); ok {
		t.Error("Promotion offered for mixed-direction change")
	}
}

func TestLedger(t *testing.T) {
	l := NewLedger()
	l.Charge("a", 100, at, "session")
	l.Charge("b", 50, at, "session")
	l.Record(Entry{Kind: EntryPenalty, SLA: "a", Amount: 10, At: at})
	l.Record(Entry{Kind: EntryPromotion, SLA: "b", Amount: 20, At: at})
	l.Record(Entry{Kind: EntryRefund, SLA: "b", Amount: 5, At: at})

	if got := l.NetRevenue(); math.Abs(got-155) > 1e-9 {
		t.Errorf("NetRevenue = %g, want 155", got)
	}
	if got := len(l.Entries()); got != 5 {
		t.Errorf("Entries = %d", got)
	}
}

func TestEntryKindString(t *testing.T) {
	kinds := []EntryKind{EntryCharge, EntryPenalty, EntryPromotion, EntryRefund}
	names := []string{"charge", "penalty", "promotion", "refund"}
	for i, k := range kinds {
		if k.String() != names[i] {
			t.Errorf("%d String = %q", i, k.String())
		}
	}
	if EntryKind(9).String() != "entry(9)" {
		t.Error("unknown kind String")
	}
}
