package main

import (
	"fmt"
	"math/rand"
	"time"

	"gqosm/internal/core"
	"gqosm/internal/resource"
	"gqosm/internal/sla"
)

const (
	// arrivalGap is the virtual time between overload operations. With
	// holds of 10–60 min it keeps ~105 sessions wanting ~2 CPU each
	// against 120 CPU: about 1.8x what the plan can carry.
	arrivalGap = 20 * time.Second
	// expireEvery operations the driver sweeps expired sessions.
	expireEvery = 8
	// failEvery operations 30 CPU fail; they recover failFor later.
	failEvery = 500
	failFor   = 150
	// bestEffortHeld is how many best-effort clients hold capacity before
	// the driver starts releasing the oldest.
	bestEffortHeld = 8
)

// held is a session the overload driver may still renegotiate.
type held struct {
	liveSession
	class sla.Class
	end   time.Time
}

// overloadDriver is the adaptation workload: one closed-loop client on
// virtual time, offering more than the plan can carry. Sessions are never
// terminated by the client; their holds expire.
type overloadDriver struct {
	e   *env
	c   *client
	rng *rand.Rand
	// Decks, so that the offered load is the same for every seed: the
	// operation mix, the request shapes, the holds (10–60 min) and who
	// lets the broker degrade them.
	kinds, shapes, holds, willing *deck
	tgt                           directTarget
	held                          []held
	be                            []string
	ops                           int
	adm                           [1]admission
}

func (o *overloadDriver) run(n int) {
	e, m, b := o.e, o.e.m, o.e.stacks[0].broker
	for i := 0; i < n; i++ {
		o.ops++
		e.clock.Advance(arrivalGap)
		sess := int64(o.ops)
		switch k := o.kinds.draw(); {
		case k < 8:
			g := e.tr.beginUnder("bench.generate", 0, 0)
			req := o.request(k < 4)
			e.tr.end(g)
			o.tgt.admit([]core.Request{req}, []int64{sess}, o.adm[:])
			if o.c.session(o.adm[0], sess) {
				o.held = append(o.held, held{liveSession: liveSession{id: o.adm[0].id, sess: sess}, class: req.Class, end: req.End})
			}
		case k == 8:
			o.bestEffort(b)
		default:
			o.renegotiate(b, sess)
		}

		if o.ops%expireEvery == 0 {
			t := time.Now()
			s := e.tr.begin("core.expire_due", 0)
			expired := b.ExpireDue()
			e.tr.end(s)
			m.terminate.add(float64(time.Since(t)) / 1e3)
			o.c.op('x', nil)
			fmt.Fprint(o.c.digest, len(expired))
		}
		switch o.ops % failEvery {
		case 0:
			o.notify(b, resource.Nodes(30))
		case failFor:
			o.notify(b, resource.Capacity{})
		}
	}
}

// request draws an admission: guaranteed asks exact capacity,
// controlled-load a CPU range that 70 % let the broker degrade.
func (o *overloadDriver) request(guaranteed bool) core.Request {
	shape := o.shapes.draw()
	cpu, scale := float64(shape%3+1), float64(shape/3+1)
	hold := time.Duration(10+o.holds.draw()) * time.Minute
	willing := o.willing.draw() < 7
	now := o.e.clock.Now()
	req := core.Request{
		Service: "simulation",
		Client:  fmt.Sprintf("tenant-%02d", o.ops%8),
		Class:   sla.ClassGuaranteed,
		Start:   now,
		End:     now.Add(hold),
		Spec:    exactSpec(cpu, scale),
	}
	if !guaranteed {
		req.Class = sla.ClassControlledLoad
		req.AcceptDegradation = willing
		req.Spec = rangeSpec(cpu, scale)
	}
	return req
}

// bestEffort grants one more best-effort client, or releases the oldest
// once bestEffortHeld are holding capacity. A full pool refuses a grant; a
// grant a failure has preempted since is unknown at release.
func (o *overloadDriver) bestEffort(b *core.Broker) {
	s := o.e.tr.begin("core.besteffort", 0)
	defer o.e.tr.end(s)
	if len(o.be) >= bestEffortHeld {
		o.c.op('l', b.BestEffortRelease(o.be[0]), core.ErrUnknownUser)
		o.be = o.be[1:]
		return
	}
	name := fmt.Sprintf("be-%d", o.ops)
	err := b.BestEffortRequest(name, resource.Nodes(float64(o.rng.Intn(4)+1)))
	o.c.op('b', err, core.ErrBestEffortFull)
	if err == nil {
		o.be = append(o.be, name)
	}
}

// renegotiate asks for a new CPU level on a random held session whose
// hold has not elapsed.
func (o *overloadDriver) renegotiate(b *core.Broker, sess int64) {
	now := o.e.clock.Now()
	kept := o.held[:0]
	for _, h := range o.held {
		if h.end.After(now) {
			kept = append(kept, h)
		}
	}
	o.held = kept
	pick := o.rng.Intn(len(o.held) + 1) // drawn even when nothing is held
	cpu := float64(o.rng.Intn(3) + 1)
	if pick == len(o.held) {
		return
	}
	h := o.held[pick]
	spec := exactSpec(cpu, 1)
	if h.class == sla.ClassControlledLoad {
		spec = rangeSpec(cpu, 1)
	}
	s := o.e.tr.begin("core.renegotiate", sess)
	_, err := b.Renegotiate(h.id, spec)
	o.e.tr.end(s)
	o.c.op('r', err)
}

func (o *overloadDriver) notify(b *core.Broker, offline resource.Capacity) {
	s := o.e.tr.begin("core.notify_failure", 0)
	pre := b.NotifyFailure(offline)
	o.e.tr.end(s)
	o.c.op('p', nil)
	fmt.Fprint(o.c.digest, len(pre))
	o.e.preemptions += len(pre)
}

// drain lets every hold elapse and gives back what the driver still
// holds, so the final reservation check sees a drained broker.
func (o *overloadDriver) drain(b *core.Broker) {
	b.NotifyFailure(resource.Capacity{})
	for _, name := range o.be {
		o.c.op('l', b.BestEffortRelease(name), core.ErrUnknownUser)
	}
	o.be = nil
	o.e.clock.Advance(2 * time.Hour)
	b.ExpireDue()
}
