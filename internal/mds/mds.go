// Package mds is what is left of the stand-in for the Globus Monitoring
// and Discovery Service (MDS), which the paper's SLA-Verif queries for CPU
// QoS levels (§3.2). The broker measures compute conformance from its
// allocator's book instead (Allocated × Allocator.Coverage()): a failure
// reaches only the allocator, so a directory published from the
// reservation pool could never report one (DESIGN.md §1). The deployment
// builds no directory; the benchmark harness still registers one provider,
// and this is all it calls.
package mds

import (
	"errors"
	"fmt"
	"sync"
)

// Attributes is one provider's published status: attribute name → value.
// Values are strings on the wire (as in LDAP-backed MDS).
type Attributes map[string]string

// ProviderFunc supplies a provider's current attributes when polled. It
// must be safe for concurrent use.
type ProviderFunc func() Attributes

// ErrDuplicate is returned when registering an existing name.
var ErrDuplicate = errors.New("mds: entry already registered")

// Directory is an information-service index of named providers. It is
// safe for concurrent use.
type Directory struct {
	mu    sync.Mutex
	local map[string]ProviderFunc
}

// NewDirectory returns an empty directory.
func NewDirectory() *Directory {
	return &Directory{local: make(map[string]ProviderFunc)}
}

// Register publishes a provider under name.
func (d *Directory) Register(name string, f ProviderFunc) error {
	if name == "" || f == nil {
		return errors.New("mds: name and provider required")
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if _, ok := d.local[name]; ok {
		return fmt.Errorf("%w: %s", ErrDuplicate, name)
	}
	d.local[name] = f
	return nil
}
