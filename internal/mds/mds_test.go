package mds

import (
	"errors"
	"testing"
)

func staticProvider(a Attributes) ProviderFunc {
	return func() Attributes { return a }
}

func TestRegisterValidation(t *testing.T) {
	d := NewDirectory()
	if err := d.Register("", staticProvider(nil)); err == nil {
		t.Error("empty name accepted")
	}
	if err := d.Register("x", nil); err == nil {
		t.Error("nil provider accepted")
	}
	if err := d.Register("x", staticProvider(nil)); err != nil {
		t.Fatal(err)
	}
	if err := d.Register("x", staticProvider(nil)); !errors.Is(err, ErrDuplicate) {
		t.Errorf("duplicate err = %v", err)
	}
}
