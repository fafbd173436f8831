package core

import (
	"errors"
	"fmt"
	"math"
	"testing"
	"time"

	"gqosm/internal/clockx"
	"gqosm/internal/gram"
	"gqosm/internal/resource"
	"gqosm/internal/sla"
)

// The fmt formats the appended activity-log lines replaced, kept as their
// oracle the way FuzzCapacityString keeps the old Capacity.String.
const (
	requestFormat  = "client %q requests %q class=%s spec floor %v"
	offerFormat    = "proposed %v at price %.2f (expires %s)"
	chargeFormat   = "established; resources committed; charged %.2f"
	grantFormat    = "granted %v to %q"
	releaseFormat  = "released all capacity of %q"
	invokeFormat   = "service %q launched as %s (pid %d), reservation claimed"
	clearingFormat = "%s: %s"
)

// moveFormats are the old move messages, whose verbs index the previous
// allocation, the applied one and the amount billed.
var moveFormats = map[moveLine]string{
	degradedLine:     "degraded to floor %[2]v (scenario 1 compensation)",
	restoredLine:     "restored to %[2]v (scenario 2a)",
	alternativeLine:  "switched to alternative QoS %[2]v (scenario 3b)",
	promotedLine:     "accepted: upgraded to %[2]v for %.2[3]f",
	renegotiatedLine: "QoS renegotiated %[1]v -> %[2]v (price %+.2[3]f)",
}

// lineInput is one set of arguments for every per-session line.
type lineInput struct {
	client, service, reason string
	job                     gram.JobID
	pid                     int
	class                   sla.Class
	state                   sla.State
	old, applied            resource.Capacity
	price, billed           float64
	expires                 time.Time
}

// lineMismatches renders every per-session line of in both ways and
// describes each that differs.
func lineMismatches(in lineInput) []string {
	// A non-empty buffer: each renderer appends, it does not overwrite.
	const prefix = "»"
	buf := func() []byte { return []byte(prefix) }
	type pair struct {
		name string
		got  []byte
		want string
	}
	pairs := []pair{
		{"request", appendRequestLine(buf(), in.client, in.service, in.class, in.applied),
			fmt.Sprintf(requestFormat, in.client, in.service, in.class, in.applied)},
		{"offer", appendOfferLine(buf(), in.applied, in.price, in.expires),
			fmt.Sprintf(offerFormat, in.applied, in.price, in.expires.Format("15:04:05"))},
		{"charge", appendChargeLine(buf(), in.price), fmt.Sprintf(chargeFormat, in.price)},
		{"grant", appendGrantLine(buf(), in.applied, in.client), fmt.Sprintf(grantFormat, in.applied, in.client)},
		{"release", appendReleaseLine(buf(), in.client), fmt.Sprintf(releaseFormat, in.client)},
		{"invoke", appendInvokeLine(buf(), in.service, in.job, in.pid), fmt.Sprintf(invokeFormat, in.service, in.job, in.pid)},
		{"clearing", appendClearingLine(buf(), in.state, in.reason), fmt.Sprintf(clearingFormat, in.state, in.reason)},
	}
	for l, format := range moveFormats {
		pairs = append(pairs, pair{fmt.Sprintf("move %d", l), l.appendTo(buf(), in.old, in.applied, in.billed),
			fmt.Sprintf(format, in.old, in.applied, in.billed)})
	}
	var out []string
	for _, p := range pairs {
		if got := string(p.got); got != prefix+p.want {
			out = append(out, fmt.Sprintf("%s line = %q, fmt renders %q", p.name, got, prefix+p.want))
		}
	}
	return out
}

// oldRefusal rebuilds the fmt.Errorf chain a refusal's site built before
// refusals were typed: the oracle for their text and their unwrapping.
func oldRefusal(err error) error {
	r, ok := err.(*Refusal)
	if !ok {
		return err
	}
	switch r.form {
	case refusedRegrant:
		return fmt.Errorf("%w: user %s needs %v, only %v guaranteed-capacity available", r.Err, r.ID, r.Need, r.Avail)
	case refusedFloor:
		return fmt.Errorf("%w: user %s needs floor %v, only %v available", r.Err, r.ID, r.Need, r.Avail)
	case refusedBestEffort:
		return fmt.Errorf("%w: requested %v, available %v", r.Err, r.Need, r.Avail)
	case compensationShort:
		return fmt.Errorf("core: compensation freed insufficient capacity for %v", r.Need)
	case requestRefused:
		return fmt.Errorf("request %s: %w (compensation: %v)", r.ID, oldRefusal(r.Err), oldRefusal(r.Cause))
	case retryRefused:
		return fmt.Errorf("request %s after compensation: %w", r.ID, oldRefusal(r.Err))
	case renegotiationRefused:
		if r.Cause != nil {
			return fmt.Errorf("core: renegotiate %s: %w (compensation: %v)", r.ID, oldRefusal(r.Err), oldRefusal(r.Cause))
		}
		return fmt.Errorf("core: renegotiate %s: %w", r.ID, oldRefusal(r.Err))
	}
	panic(fmt.Sprintf("refusal form %d has no oracle", r.form))
}

// refusalMismatch compares a refusal with the chain its site used to
// build: the text, errors.Is for every taxonomy sentinel, and the wire
// status. It returns "" when they agree.
func refusalMismatch(err error) string {
	old := oldRefusal(err)
	if got, want := err.Error(), old.Error(); got != want {
		return fmt.Sprintf("Error() = %q, fmt.Errorf rendered %q", got, want)
	}
	for _, row := range taxonomy {
		if got, want := errors.Is(err, row.err), errors.Is(old, row.err); got != want {
			return fmt.Sprintf("%q: errors.Is(%v) = %v, the fmt chain says %v", err, row.err, got, want)
		}
	}
	gotCode, gotStatus := WireStatus(err)
	if wantCode, wantStatus := WireStatus(old); gotCode != wantCode || gotStatus != wantStatus {
		return fmt.Sprintf("%q: WireStatus = %s %d, the fmt chain has %s %d", err, gotCode, gotStatus, wantCode, wantStatus)
	}
	return ""
}

// everyRefusal builds each form of refusal over id, need and avail the way
// its site does.
func everyRefusal(id string, need, avail resource.Capacity) []error {
	regrant := &Refusal{Err: ErrCannotHonor, ID: id, Need: need, Avail: avail, form: refusedRegrant}
	floor := &Refusal{Err: ErrCannotHonor, ID: id, Need: need, Avail: avail, form: refusedFloor}
	short := &Refusal{Need: need, Avail: avail, form: compensationShort}
	badState := fmt.Errorf("%w: %s has a reallocation in flight", ErrBadState, id)
	return []error{
		regrant, floor, short,
		&Refusal{Err: ErrBestEffortFull, ID: id, Need: need, Avail: avail, form: refusedBestEffort},
		reportRefusal(requestRefused, sla.ID(id), floor, short),
		reportRefusal(requestRefused, sla.ID(id), floor, errNoVolunteers),
		reportRefusal(retryRefused, sla.ID(id), floor, nil),
		reportRefusal(renegotiationRefused, sla.ID(id), regrant, short),
		reportRefusal(renegotiationRefused, sla.ID(id), regrant, nil),
		reportRefusal(renegotiationRefused, sla.ID(id), badState, nil),
		reportRefusal(renegotiationRefused, sla.ID(id), reportRefusal(retryRefused, sla.ID(id), floor, nil), errNoVolunteers),
	}
}

// adversarialNames are client, service, job and SLA names fmt's %q and %s
// treat specially.
var adversarialNames = []string{
	"", "plain", `quo"te`, `back\slash`, "tab\tnew\nline", "\xff\xfeinvalid", "€ ünïcode", "%v %!s(MISSING)", "\x00\x7f",
}

func TestActivityLineParity(t *testing.T) {
	est := time.FixedZone("EST", -5*3600)
	capacities := []resource.Capacity{
		{},
		{CPU: 10, MemoryMB: 2048, DiskGB: 15},
		{CPU: -0.5, BandwidthMbps: 1e21},
		{CPU: math.NaN(), MemoryMB: math.Inf(1), DiskGB: math.Inf(-1)},
		{CPU: 1e-10, MemoryMB: 1.0 / 3},
	}
	amounts := []float64{0, math.Copysign(0, -1), 79.855, -3.14159, -0.001, 1e21, math.NaN(), -math.NaN(), math.Inf(1), math.Inf(-1), math.MaxFloat64, math.SmallestNonzeroFloat64}
	expiries := []time.Time{
		time.Date(2003, 6, 16, 9, 10, 0, 0, time.UTC),
		time.Date(2003, 6, 16, 23, 59, 59, 999999999, est),
		{},
	}
	n := 0
	for i, name := range adversarialNames {
		for j, c := range capacities {
			for k, v := range amounts {
				in := lineInput{
					client: name, service: adversarialNames[(i+1)%len(adversarialNames)], reason: name,
					job: gram.JobID(name), pid: []int{0, -1, 1001, math.MaxInt}[k%4],
					class: sla.Class(k%5 - 1), state: sla.State(k % 9),
					old: capacities[(j+1)%len(capacities)], applied: c,
					price: v, billed: amounts[(k+j)%len(amounts)], expires: expiries[(i+k)%len(expiries)],
				}
				for _, m := range lineMismatches(in) {
					t.Error(m)
				}
				n++
			}
		}
	}
	for _, name := range adversarialNames {
		for _, c := range capacities {
			for _, err := range everyRefusal(name, c, capacities[0]) {
				if m := refusalMismatch(err); m != "" {
					t.Error(m)
				}
			}
		}
	}
	t.Logf("%d line inputs against %d formats", n, 7+len(moveFormats))
}

// FuzzActivityLines holds every appended line and every refusal's text to
// the fmt rendering it replaced. Grow the corpus with
// `go test -fuzz=FuzzActivityLines ./internal/core`.
func FuzzActivityLines(f *testing.F) {
	f.Add("client", `ser"vice`, "done", 2.0, 512.0, 79.86, -3.5, 1001, int64(0), 0)
	f.Add("\xff", `\`, "", 0.0, math.Inf(1), math.Inf(1), math.NaN(), -1, int64(1<<62), -18000)
	f.Add("", "", "a: b", math.Copysign(0, -1), 1e-10, math.Copysign(0, -1), math.Inf(-1), 0, int64(-1<<40), 45296)
	f.Fuzz(func(t *testing.T, name, service, reason string, cpu, mem, price, billed float64, pid int, unix int64, offset int) {
		applied := resource.Capacity{CPU: cpu, MemoryMB: mem}
		old := resource.Capacity{DiskGB: price, BandwidthMbps: billed}
		zone := time.FixedZone("Z", offset%(26*3600))
		in := lineInput{
			client: name, service: service, reason: reason, job: gram.JobID(reason), pid: pid,
			class: sla.Class(pid % 5), state: sla.State(pid % 9),
			old: old, applied: applied, price: price, billed: billed, expires: time.Unix(unix%(1<<40), 0).In(zone),
		}
		for _, m := range lineMismatches(in) {
			t.Error(m)
		}
		for _, err := range everyRefusal(name, applied, old) {
			if m := refusalMismatch(err); m != "" {
				t.Error(m)
			}
		}
	})
}

// TestRefusalSites drives each refusal site the broker can reach alone and
// holds its error to the fmt.Errorf chain it used to build, with the
// capacities it compared. everyRefusal covers the retry after a
// compensation that freed enough, and a renegotiation refused for
// anything but capacity, which need another goroutine or a failing
// resource manager to reach.
func TestRefusalSites(t *testing.T) {
	clock := clockx.NewManual(t0)
	b := miniBroker(t, clock, nil)
	establish, guaranteed, controlled := allocGatePopulation(t, b)
	cpuMem := func(cpu, mem float64) resource.Capacity { return resource.Capacity{CPU: cpu, MemoryMB: mem} }
	bound := resource.Capacity{CPU: 40, MemoryMB: 40960, DiskGB: 640, BandwidthMbps: 6000}

	check := func(site string, err error, form refusalForm, need, avail resource.Capacity) {
		t.Helper()
		var r *Refusal
		if !errors.As(err, &r) || r.form != form {
			t.Fatalf("%s: err = %v, want a refusal of form %d", site, err, form)
		}
		if r.Need != need || r.Avail != avail {
			t.Errorf("%s: refusal compared %v with %v, want %v with %v", site, r.Need, r.Avail, need, avail)
		}
		if m := refusalMismatch(err); m != "" {
			t.Errorf("%s: %s", site, m)
		}
	}

	// Allocator: a new user's floor, a held user's re-grant, best effort.
	_, err := b.alloc.AllocateGuaranteed("new", cpuMem(41, 1), cpuMem(41, 1))
	check("floor", err, refusedFloor, cpuMem(41, 1), bound)
	held := establish(guaranteed)
	_, err = b.alloc.AllocateGuaranteed(string(held), cpuMem(41, 1), cpuMem(41, 1))
	check("re-grant", err, refusedRegrant, cpuMem(41, 1), bound)
	err = b.BestEffortRequest("be", resource.Capacity{CPU: 100})
	check("best effort", err, refusedBestEffort, resource.Capacity{CPU: 100},
		bound.Sub(cpuMem(0.25, 128)).Add(b.cfg.Plan.Adaptive).Add(b.cfg.Plan.BestEffort))

	// A request no volunteer can make room for.
	req := miniRequest()
	req.Spec = sla.NewSpec(sla.Exact(resource.CPU, 41), sla.Exact(resource.MemoryMB, 1))
	_, err = b.RequestService(req)
	check("request", err, requestRefused, cpuMem(41, 1), bound.Sub(cpuMem(0.25, 128)))
	if r := err.(*Refusal); r.Cause != errNoVolunteers {
		t.Errorf("request refused with compensation cause %v, want errNoVolunteers", r.Cause)
	}

	// A volunteer that frees too little: the compensation shortfall, then
	// a renegotiation that reports it.
	volunteer := establish(controlled)
	free := bound.Sub(cpuMem(0.25+1, 256))
	_, err = b.compensate(cpuMem(40, 1))
	check("compensation", err, compensationShort, cpuMem(40, 1), free.Add(cpuMem(0.5, 0)))
	if err := b.restore(volunteer); err != nil {
		t.Fatal(err)
	}
	_, err = b.Renegotiate(held, sla.NewSpec(sla.Exact(resource.CPU, 41), sla.Exact(resource.MemoryMB, 128)))
	check("renegotiation", err, renegotiationRefused, cpuMem(41, 128), free.Add(cpuMem(0.25, 128)))
	if cause := err.(*Refusal).Cause; !errors.As(cause, new(*Refusal)) {
		t.Errorf("renegotiation refused with compensation cause %v, want the compensation shortfall", cause)
	}
}
