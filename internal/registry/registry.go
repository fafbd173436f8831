// Package registry implements a UDDIe-style service registry — the
// extended UDDI of ShaikhAli et al. the paper's discovery phase relies on
// (§2.1: "service users can now also specify particular service
// properties, such as QoS parameters, with which services are registered,
// and based on which services can subsequently be discovered").
//
// Services register with a *property bag* of typed QoS properties and a
// lease; discovery queries combine a name pattern with property
// constraints (UDDIe's qualifier-based search).
package registry

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"gqosm/internal/clockx"
	"gqosm/internal/resource"
)

// Registry errors.
var (
	// ErrNotFound is returned for unknown service keys.
	ErrNotFound = errors.New("registry: service not found")
	// ErrExpired is returned when operating on a service whose lease
	// lapsed.
	ErrExpired = errors.New("registry: lease expired")
	// ErrBadProperty is returned for malformed properties or filters.
	ErrBadProperty = errors.New("registry: bad property")
)

// PropertyType discriminates property values, as UDDIe distinguishes
// numeric from string property qualifiers.
type PropertyType int

// Property types.
const (
	String PropertyType = iota + 1
	Number
)

// Property is one entry of a service's property bag.
type Property struct {
	Name string
	Type PropertyType
	Str  string
	Num  float64
}

// StrProp returns a string property.
func StrProp(name, value string) Property {
	return Property{Name: name, Type: String, Str: value}
}

// NumProp returns a numeric property.
func NumProp(name string, value float64) Property {
	return Property{Name: name, Type: Number, Num: value}
}

// Value renders the property value as a string (for XML transport).
func (p Property) Value() string {
	if p.Type == Number {
		return strconv.FormatFloat(p.Num, 'g', -1, 64)
	}
	return p.Str
}

// Key identifies a registered service (UDDI serviceKey).
type Key string

// Service is a registry entry: a Grid service advertised with its QoS
// capabilities.
type Service struct {
	Key         Key
	Name        string
	Provider    string
	Description string
	// AccessPoint is the service's network address (the "network
	// addressable" software entity of §1).
	AccessPoint string
	Properties  []Property
	// LeaseUntil is when the registration lapses; zero means no lease.
	LeaseUntil time.Time
}

// Property returns the named property.
func (s *Service) Property(name string) (Property, bool) {
	for _, p := range s.Properties {
		if p.Name == name {
			return p, true
		}
	}
	return Property{}, false
}

func (s *Service) clone() *Service {
	c := *s
	c.Properties = append([]Property(nil), s.Properties...)
	return &c
}

// Op is a comparison operator in a property filter.
type Op string

// Filter operators.
const (
	OpEq Op = "eq"
	OpNe Op = "ne"
	OpGt Op = "gt"
	OpGe Op = "ge"
	OpLt Op = "lt"
	OpLe Op = "le"
)

// Filter is one property constraint of a discovery query.
type Filter struct {
	Name  string
	Op    Op
	Value string // parsed as a number when the property is numeric
}

// Matches reports whether the property satisfies the filter.
func (f Filter) Matches(p Property) (bool, error) {
	if p.Type == Number {
		want, err := strconv.ParseFloat(strings.TrimSpace(f.Value), 64)
		if err != nil {
			return false, fmt.Errorf("%w: filter %s compares numeric property with %q",
				ErrBadProperty, f.Name, f.Value)
		}
		switch f.Op {
		case OpEq:
			return p.Num == want, nil
		case OpNe:
			return p.Num != want, nil
		case OpGt:
			return p.Num > want, nil
		case OpGe:
			return p.Num >= want, nil
		case OpLt:
			return p.Num < want, nil
		case OpLe:
			return p.Num <= want, nil
		}
		return false, fmt.Errorf("%w: unknown op %q", ErrBadProperty, f.Op)
	}
	switch f.Op {
	case OpEq:
		return p.Str == f.Value, nil
	case OpNe:
		return p.Str != f.Value, nil
	case OpGt:
		return p.Str > f.Value, nil
	case OpGe:
		return p.Str >= f.Value, nil
	case OpLt:
		return p.Str < f.Value, nil
	case OpLe:
		return p.Str <= f.Value, nil
	}
	return false, fmt.Errorf("%w: unknown op %q", ErrBadProperty, f.Op)
}

// Query is a discovery request: an optional case-insensitive name
// substring plus property constraints, all of which must hold.
type Query struct {
	NamePattern string
	Filters     []Filter
	// MaxRows caps the result set (0 = unlimited), as UDDI's maxRows.
	MaxRows int
}

// Adverts names the Number property a service advertises each capacity
// dimension under. First matches a floor against these names, and a
// stack's default advert registers them.
var Adverts = [...]struct {
	Kind resource.Kind
	Name string
}{
	{resource.CPU, "cpu-nodes"},
	{resource.MemoryMB, "memory-mb"},
	{resource.DiskGB, "disk-gb"},
	{resource.BandwidthMbps, "bandwidth-mbps"},
}

// Registry is the in-process registry. It is safe for concurrent use.
type Registry struct {
	clock clockx.Clock

	mu       sync.Mutex
	nextID   int
	services map[Key]*Service
}

// New returns an empty registry using the given clock for leases.
func New(clock clockx.Clock) *Registry {
	return &Registry{clock: clock, services: make(map[Key]*Service)}
}

// Register adds a service and returns its assigned key. A zero
// LeaseUntil means the registration does not expire.
func (r *Registry) Register(s Service) (Key, error) {
	if s.Name == "" {
		return "", errors.New("registry: service name required")
	}
	for _, p := range s.Properties {
		if p.Name == "" || (p.Type != String && p.Type != Number) {
			return "", fmt.Errorf("%w: %+v", ErrBadProperty, p)
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.nextID++
	s.Key = Key(fmt.Sprintf("svc-%04d", r.nextID))
	r.services[s.Key] = s.clone()
	return s.Key, nil
}

// Deregister removes a service.
func (r *Registry) Deregister(k Key) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.services[k]; !ok {
		return fmt.Errorf("%w: %s", ErrNotFound, k)
	}
	delete(r.services, k)
	return nil
}

// Renew extends a service's lease.
func (r *Registry) Renew(k Key, until time.Time) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	s, ok := r.services[k]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNotFound, k)
	}
	s.LeaseUntil = until
	return nil
}

// Get returns a copy of the service if its lease is current.
func (r *Registry) Get(k Key) (*Service, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	s, ok := r.services[k]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, k)
	}
	if expired(s, r.clock.Now()) {
		return nil, fmt.Errorf("%w: %s", ErrExpired, k)
	}
	return s.clone(), nil
}

// Find runs a discovery query, returning matching services (leases
// current) sorted by key. A filter naming a property a service lacks
// excludes that service. Malformed filters fail the whole query.
func (r *Registry) Find(q Query) ([]*Service, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []*Service
	now := r.clock.Now()
	pattern := strings.ToLower(q.NamePattern)
	for _, s := range r.services {
		if expired(s, now) {
			continue
		}
		if pattern != "" && !strings.Contains(strings.ToLower(s.Name), pattern) {
			continue
		}
		ok, err := matchFilters(s, q.Filters)
		if err != nil {
			return nil, err
		}
		if ok {
			out = append(out, s.clone())
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	if q.MaxRows > 0 && len(out) > q.MaxRows {
		out = out[:q.MaxRows]
	}
	return out, nil
}

func matchFilters(s *Service, filters []Filter) (bool, error) {
	for _, f := range filters {
		p, ok := s.Property(f.Name)
		if !ok {
			return false, nil
		}
		match, err := f.Matches(p)
		if err != nil {
			return false, err
		}
		if !match {
			return false, nil
		}
	}
	return true, nil
}

// First is the broker's discovery query: the key of the lowest-keyed live
// service whose name contains pattern (case-insensitive, as in Find) and
// whose advert meets floor. For every positive dimension of floor, the
// property Adverts names must be a Number at least that floor; a String
// property never meets a numeric floor. It is Find's first match for the
// equivalent "ge" query over Number adverts, without building the query,
// cloning, sorting or failing. Names are lowered as in Find, which
// allocates nothing for lower-case ASCII.
func (r *Registry) First(pattern string, floor resource.Capacity) (Key, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	now := r.clock.Now()
	pattern = strings.ToLower(pattern)
	var first Key
	found := false
	for k, s := range r.services {
		if (found && k >= first) || expired(s, now) ||
			(pattern != "" && !strings.Contains(strings.ToLower(s.Name), pattern)) || !meetsFloor(s, floor) {
			continue
		}
		first, found = k, true
	}
	return first, found
}

// meetsFloor reports whether s advertises at least floor in every
// positive dimension, as a Number.
func meetsFloor(s *Service, floor resource.Capacity) bool {
	for _, a := range Adverts {
		want := floor.Get(a.Kind)
		if !(want > 0) {
			continue
		}
		if p, ok := s.Property(a.Name); !ok || p.Type != Number || !(p.Num >= want) {
			return false
		}
	}
	return true
}

// Sweep removes expired registrations and reports how many were removed.
func (r *Registry) Sweep() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	now := r.clock.Now()
	n := 0
	for k, s := range r.services {
		if expired(s, now) {
			delete(r.services, k)
			n++
		}
	}
	return n
}

func expired(s *Service, now time.Time) bool {
	return !s.LeaseUntil.IsZero() && !now.Before(s.LeaseUntil)
}
