// Package mds is a from-scratch stand-in for the Globus Monitoring and
// Discovery Service (MDS) information service the paper's SLA-Verif
// component queries for CPU QoS levels (§3.2: "The SLA-Verif obtains QoS
// levels from both the NRM, for network resources, and the Globus
// information service (MDS) for CPU QoS" … "uses the … MDS APIs to
// periodically retrieve QoS data").
//
// The model mirrors MDS-2's GRIS/GIIS split: resource-level providers
// publish live attribute sets under a name (GRIS), and directories can be
// mounted into parent directories to form an aggregate index (GIIS).
package mds

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Attributes is one provider's published status: attribute name → value.
// Values are strings on the wire (as in LDAP-backed MDS).
type Attributes map[string]string

// Clone returns a copy of the attribute set.
func (a Attributes) Clone() Attributes {
	out := make(Attributes, len(a))
	for k, v := range a {
		out[k] = v
	}
	return out
}

// ProviderFunc supplies a provider's current attributes when polled. It
// must be safe for concurrent use.
type ProviderFunc func() Attributes

// Directory errors.
var (
	// ErrNotFound is returned for unknown entry names.
	ErrNotFound = errors.New("mds: entry not found")
	// ErrDuplicate is returned when registering an existing name.
	ErrDuplicate = errors.New("mds: entry already registered")
)

// Directory is an information-service index. It is safe for concurrent
// use.
type Directory struct {
	mu     sync.Mutex
	local  map[string]ProviderFunc
	mounts map[string]*Directory
}

// NewDirectory returns an empty directory.
func NewDirectory() *Directory {
	return &Directory{
		local:  make(map[string]ProviderFunc),
		mounts: make(map[string]*Directory),
	}
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

// Mount attaches a child directory under prefix; queries for
// "prefix/rest" route to the child as "rest" (the GIIS aggregation
// pattern).
func (d *Directory) Mount(prefix string, child *Directory) error {
	if prefix == "" || strings.Contains(prefix, "/") || child == nil {
		return errors.New("mds: mount prefix must be a single non-empty path segment")
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if _, ok := d.mounts[prefix]; ok {
		return fmt.Errorf("%w: mount %s", ErrDuplicate, prefix)
	}
	d.mounts[prefix] = child
	return nil
}

// Query polls the provider registered under name (possibly through
// mounts) and returns a copy of its current attributes.
func (d *Directory) Query(name string) (Attributes, error) {
	if prefix, rest, ok := strings.Cut(name, "/"); ok {
		d.mu.Lock()
		child, found := d.mounts[prefix]
		d.mu.Unlock()
		if !found {
			return nil, fmt.Errorf("%w: %s", ErrNotFound, name)
		}
		return child.Query(rest)
	}
	d.mu.Lock()
	f, ok := d.local[name]
	d.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, name)
	}
	attrs := f()
	if attrs == nil {
		return Attributes{}, nil
	}
	return attrs.Clone(), nil
}

// Entry is a search result.
type Entry struct {
	Name  string
	Attrs Attributes
}

// Search polls every provider (including mounted directories, with
// prefixed names) and returns entries satisfying the filter (nil matches
// all), sorted by name.
func (d *Directory) Search(filter func(Entry) bool) []Entry {
	var out []Entry
	d.mu.Lock()
	names := make([]string, 0, len(d.local))
	for name := range d.local {
		names = append(names, name)
	}
	mounts := make(map[string]*Directory, len(d.mounts))
	for p, c := range d.mounts {
		mounts[p] = c
	}
	d.mu.Unlock()

	for _, name := range names {
		attrs, err := d.Query(name)
		if err != nil {
			continue // unregistered concurrently
		}
		e := Entry{Name: name, Attrs: attrs}
		if filter == nil || filter(e) {
			out = append(out, e)
		}
	}
	for prefix, child := range mounts {
		for _, e := range child.Search(nil) {
			e.Name = prefix + "/" + e.Name
			if filter == nil || filter(e) {
				out = append(out, e)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
