package core_test

import (
	"strings"
	"testing"
	"time"

	"gqosm/internal/clockx"
	"gqosm/internal/core"
	"gqosm/internal/gara"
	"gqosm/internal/registry"
	"gqosm/internal/resource"
	"gqosm/internal/rsl"
	"gqosm/internal/sla"
)

// slowRM is a compute manager whose every Reserve takes d of clock time.
type slowRM struct {
	gara.ResourceManager
	clock *clockx.Manual
	d     time.Duration
}

func (m *slowRM) Reserve(spec *rsl.Node, start, end time.Time, tag string) (string, error) {
	m.clock.Advance(m.d)
	return m.ResourceManager.Reserve(spec, start, end, tag)
}

// The broker times its work on the injected clock: when a reservation
// takes 1.5 s of manual-clock time, one admission records exactly that in
// the admission histogram and in the gara.create call histogram.
func TestLatencyHistogramsReadTheInjectedClock(t *testing.T) {
	const took = 1500 * time.Millisecond
	clock := clockx.NewManual(reallocT0)
	g := gara.NewSystem()
	g.RegisterManager(&slowRM{ResourceManager: gara.NewComputeManager(resource.NewPool("p", cpu(20))), clock: clock, d: took})
	reg := registry.New(clock)
	if _, err := reg.Register(registry.Service{
		Name: "simulation", Properties: []registry.Property{registry.NumProp("cpu-nodes", 20)},
	}); err != nil {
		t.Fatal(err)
	}
	b, err := core.NewBroker(core.Config{
		Domain: "site-a", Clock: clock,
		Plan:     core.CapacityPlan{Guaranteed: cpu(12), Adaptive: cpu(4), BestEffort: cpu(4)},
		Registry: reg, GARA: g, ConfirmWindow: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(b.Close)

	if _, err := b.RequestService(core.Request{
		Service: "simulation", Client: "c", Class: sla.ClassGuaranteed,
		Spec:  sla.NewSpec(sla.Exact(resource.CPU, 4)),
		Start: reallocT0, End: reallocT0.Add(5 * time.Hour),
	}); err != nil {
		t.Fatal(err)
	}

	var text strings.Builder
	if err := b.Obs().WritePrometheus(&text); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"gqosm_broker_admission_seconds_sum 1.5\n",
		`gqosm_rm_call_seconds_sum{site="gara.create"} 1.5` + "\n",
	} {
		if !strings.Contains(text.String(), want) {
			t.Errorf("exposition lacks %q:\n%s", want, text.String())
		}
	}
}
