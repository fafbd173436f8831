package gara

import (
	"time"

	"gqosm/internal/faultx"
	"gqosm/internal/rsl"
)

// WrapManager decorates a resource manager with fault injection at
// sites "gara.<type>.reserve", "gara.<type>.modify" and
// "gara.<type>.cancel". A manager that also implements Binder keeps
// that capability (Bind/Unbind are claim bookkeeping, not resource
// operations, and are not injection sites). A nil injector returns rm
// unchanged.
func WrapManager(rm ResourceManager, inj *faultx.Injector) ResourceManager {
	if inj == nil {
		return rm
	}
	fm := &faultManager{rm: rm, inj: inj, prefix: "gara." + rm.Type() + "."}
	if b, ok := rm.(Binder); ok {
		return &faultBinderManager{faultManager: fm, binder: b}
	}
	return fm
}

type faultManager struct {
	rm     ResourceManager
	inj    *faultx.Injector
	prefix string
}

func (m *faultManager) Type() string { return m.rm.Type() }

func (m *faultManager) Reserve(spec *rsl.Node, start, end time.Time, tag string) (string, error) {
	var token string
	err := m.inj.Do(m.prefix+"reserve", func() error {
		t, err := m.rm.Reserve(spec, start, end, tag)
		if err == nil {
			token = t
		}
		return err
	})
	if err != nil {
		// A partial fault committed the underlying reservation but lost
		// the reply; the token is unusable by the caller, exactly like a
		// lost network response.
		return "", err
	}
	return token, nil
}

func (m *faultManager) Modify(token string, spec *rsl.Node) error {
	return m.inj.Do(m.prefix+"modify", func() error { return m.rm.Modify(token, spec) })
}

func (m *faultManager) Cancel(token string) error {
	return m.inj.Do(m.prefix+"cancel", func() error { return m.rm.Cancel(token) })
}

type faultBinderManager struct {
	*faultManager
	binder Binder
}

func (m *faultBinderManager) Bind(token string) error {
	return m.binder.Bind(token)
}

func (m *faultBinderManager) Unbind(token string) error {
	return m.binder.Unbind(token)
}

var (
	_ ResourceManager = (*faultManager)(nil)
	_ Binder          = (*faultBinderManager)(nil)
)
