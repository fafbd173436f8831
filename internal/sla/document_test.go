package sla

import (
	"errors"
	"testing"
	"time"

	"gqosm/internal/resource"
)

var (
	t0 = time.Date(2003, 6, 16, 9, 0, 0, 0, time.UTC)
	t5 = t0.Add(5 * time.Hour)
)

func guaranteedDoc() *Document {
	return &Document{
		ID:      "1055",
		Service: "simulation",
		Client:  "site-c-scientists",
		Class:   ClassGuaranteed,
		Spec: NewSpec(
			Exact(resource.CPU, 10),
			Exact(resource.MemoryMB, 2048),
			Exact(resource.DiskGB, 15),
		),
		Start: t0,
		End:   t5,
		State: StateProposed,
	}
}

func TestClassString(t *testing.T) {
	tests := []struct {
		c    Class
		want string
	}{
		{ClassGuaranteed, "Guaranteed"},
		{ClassControlledLoad, "Controlled-load"},
		{ClassBestEffort, "Best-effort"},
		{Class(9), "class(9)"},
	}
	for _, tt := range tests {
		if got := tt.c.String(); got != tt.want {
			t.Errorf("%d.String() = %q, want %q", tt.c, got, tt.want)
		}
	}
}

func TestParseClass(t *testing.T) {
	for _, s := range []string{"Guaranteed", "guaranteed"} {
		if c, err := ParseClass(s); err != nil || c != ClassGuaranteed {
			t.Errorf("ParseClass(%q) = %v, %v", s, c, err)
		}
	}
	if c, err := ParseClass("Controlled-load"); err != nil || c != ClassControlledLoad {
		t.Errorf("ParseClass = %v, %v", c, err)
	}
	if c, err := ParseClass("Best-effort"); err != nil || c != ClassBestEffort {
		t.Errorf("ParseClass = %v, %v", c, err)
	}
	if _, err := ParseClass("platinum"); err == nil {
		t.Error("ParseClass(platinum) succeeded")
	}
}

func TestDocumentValidate(t *testing.T) {
	d := guaranteedDoc()
	if err := d.Validate(); err != nil {
		t.Fatalf("valid doc rejected: %v", err)
	}

	tests := []struct {
		name   string
		mutate func(*Document)
	}{
		{"empty id", func(d *Document) { d.ID = "" }},
		{"unknown class", func(d *Document) { d.Class = Class(9) }},
		{"no params", func(d *Document) { d.Spec = Spec{} }},
		{"bad param", func(d *Document) { d.Spec = NewSpec(Exact(resource.CPU, -1)) }},
		{"end before start", func(d *Document) { d.End = d.Start.Add(-time.Hour) }},
		{"promotion on guaranteed", func(d *Document) { d.Adapt.PromotionOffers = true }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			d := guaranteedDoc()
			tt.mutate(d)
			if err := d.Validate(); err == nil {
				t.Error("Validate accepted invalid document")
			}
		})
	}
}

func TestBestEffortNeedsNoParams(t *testing.T) {
	d := &Document{ID: "be-1", Class: ClassBestEffort, State: StateProposed}
	if err := d.Validate(); err != nil {
		t.Fatalf("best-effort without params rejected: %v", err)
	}
}

func TestPromotionOffersOnControlledLoad(t *testing.T) {
	d := guaranteedDoc()
	d.Class = ClassControlledLoad
	d.Spec = NewSpec(Range(resource.CPU, 10, 55))
	d.Adapt.PromotionOffers = true
	if err := d.Validate(); err != nil {
		t.Fatalf("controlled-load promotion rejected: %v", err)
	}
}

func TestLifecycleHappyPath(t *testing.T) {
	d := guaranteedDoc()
	seq := []State{StateEstablished, StateActive, StateDegraded, StateActive, StateTerminated}
	for _, next := range seq {
		if err := d.Transition(next); err != nil {
			t.Fatalf("Transition(%v): %v", next, err)
		}
	}
	if !d.State.Terminal() {
		t.Error("terminated state not terminal")
	}
}

func TestLifecycleViolationRecovery(t *testing.T) {
	d := guaranteedDoc()
	for _, next := range []State{StateEstablished, StateActive, StateViolated, StateActive, StateExpired} {
		if err := d.Transition(next); err != nil {
			t.Fatalf("Transition(%v): %v", next, err)
		}
	}
}

func TestLifecycleRejectsInvalid(t *testing.T) {
	tests := []struct {
		from, to State
	}{
		{StateProposed, StateActive},      // must establish first
		{StateProposed, StateDegraded},    //
		{StateEstablished, StateDegraded}, // must activate first
		{StateTerminated, StateActive},    // terminal
		{StateExpired, StateActive},       // terminal
		{StateActive, StateProposed},      // no going back
		{StateActive, StateEstablished},   //
		{StateEstablished, StateViolated}, // not yet active
	}
	for _, tt := range tests {
		d := guaranteedDoc()
		d.State = tt.from
		if err := d.Transition(tt.to); !errors.Is(err, ErrBadTransition) {
			t.Errorf("Transition %v->%v err = %v, want ErrBadTransition", tt.from, tt.to, err)
		}
		if d.State != tt.from {
			t.Errorf("failed transition mutated state to %v", d.State)
		}
	}
}

func TestStateStrings(t *testing.T) {
	states := []State{StateProposed, StateEstablished, StateActive, StateDegraded,
		StateViolated, StateTerminated, StateExpired}
	names := []string{"proposed", "established", "active", "degraded",
		"violated", "terminated", "expired"}
	for i, s := range states {
		if s.String() != names[i] {
			t.Errorf("%d String = %q, want %q", i, s.String(), names[i])
		}
	}
	if State(99).String() != "state(99)" {
		t.Error("unknown state String")
	}
}

func TestDocumentCloneIsDeep(t *testing.T) {
	d := guaranteedDoc()
	c := d.Clone()
	c.Spec.Params[0] = Exact(resource.CPU, 99)
	if p, _ := d.Spec.Get(resource.CPU); p.Exact != 10 {
		t.Error("Clone shares Spec")
	}
}
