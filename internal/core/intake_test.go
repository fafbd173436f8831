package core

import (
	"errors"
	"fmt"
	"math"
	"runtime/debug"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gqosm/internal/gara"
	"gqosm/internal/resource"
	"gqosm/internal/rsl"
	"gqosm/internal/sla"
)

// intakeRequest is a small guaranteed ask (1 CPU) so a full batch of
// eight fits the 15-CPU guaranteed plan with room to spare.
func intakeRequest(client string) Request {
	return Request{
		Service: "simulation",
		Client:  client,
		Class:   sla.ClassGuaranteed,
		Spec:    sla.NewSpec(sla.Exact(resource.CPU, 1)),
		Start:   t0,
		End:     t5,
	}
}

func withIntake(cfg IntakeConfig) func(*Config) {
	return func(c *Config) { c.Intake = cfg }
}

// TestIntakeGroupCommitOneFsync is the group-commit contract on disk: a
// batch of eight admissions lands through one wal.AppendBatch — eight
// journal records, ONE fsync — where eight unqueued admissions would have
// paid eight.
func TestIntakeGroupCommitOneFsync(t *testing.T) {
	h := newDurableHarness(t, 0, withIntake(IntakeConfig{MaxBatch: 32}))
	b := h.broker

	appends0, syncs0, _ := b.WALStats()
	tickets := make([]*IntakeTicket, 8)
	for i := range tickets {
		tk, err := b.Submit(intakeRequest(fmt.Sprintf("batch-%d", i)))
		if err != nil {
			t.Fatalf("Submit %d: %v", i, err)
		}
		if tk.Resolved() {
			t.Fatalf("ticket %d resolved before any flush", i)
		}
		tickets[i] = tk
	}
	if got := b.IntakePending(); got != 8 {
		t.Fatalf("IntakePending = %d, want 8", got)
	}
	b.FlushIntake()
	if got := b.IntakePending(); got != 0 {
		t.Fatalf("IntakePending after flush = %d, want 0", got)
	}
	for i, tk := range tickets {
		offer, err := tk.Wait()
		if err != nil {
			t.Fatalf("ticket %d: %v", i, err)
		}
		if offer == nil || offer.SLA == nil {
			t.Fatalf("ticket %d: fulfilled without an offer", i)
		}
	}
	appends1, syncs1, _ := b.WALStats()
	if got := appends1 - appends0; got != 8 {
		t.Errorf("journal records for the batch = %d, want 8 (one per session)", got)
	}
	if got := syncs1 - syncs0; got != 1 {
		t.Errorf("fsyncs for the batch = %d, want 1 (the group commit)", got)
	}
}

// TestIntakeBackpressure: a full queue refuses with ErrIntakeFull
// instead of blocking or growing without bound, and the queued tickets
// still resolve at the next flush.
func TestIntakeBackpressure(t *testing.T) {
	h := newHarness(t, withIntake(IntakeConfig{MaxBatch: 64, Depth: 2}))
	b := h.broker

	t1, err := b.Submit(intakeRequest("bp-0"))
	if err != nil {
		t.Fatal(err)
	}
	t2, err := b.Submit(intakeRequest("bp-1"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.Submit(intakeRequest("bp-2")); !errors.Is(err, ErrIntakeFull) {
		t.Fatalf("third Submit at Depth=2: err = %v, want ErrIntakeFull", err)
	}
	b.FlushIntake()
	for i, tk := range []*IntakeTicket{t1, t2} {
		if _, err := tk.Wait(); err != nil {
			t.Fatalf("queued ticket %d after flush: %v", i, err)
		}
	}
	// The queue drained, so the refused client's retry goes through.
	if _, err := b.Submit(intakeRequest("bp-2")); err != nil {
		t.Fatalf("retry after drain: %v", err)
	}
	b.FlushIntake()
}

// TestIntakeRecoveryAfterBatchedPropose: sessions journaled by a group
// commit survive a crash exactly like singly admitted sessions — the
// batch amortizes the fsync, not the durability.
func TestIntakeRecoveryAfterBatchedPropose(t *testing.T) {
	h := newDurableHarness(t, 0, withIntake(IntakeConfig{MaxBatch: 32}))

	tickets := make([]*IntakeTicket, 8)
	for i := range tickets {
		tk, err := h.broker.Submit(intakeRequest(fmt.Sprintf("rec-%d", i)))
		if err != nil {
			t.Fatalf("Submit %d: %v", i, err)
		}
		tickets[i] = tk
	}
	h.broker.FlushIntake()
	// Drive half the batch to accepted so recovery covers both the
	// proposed and the accepted lifecycles out of one journal batch.
	for i, tk := range tickets {
		offer, err := tk.Wait()
		if err != nil {
			t.Fatalf("ticket %d: %v", i, err)
		}
		if i%2 == 0 {
			if err := h.broker.Accept(offer.SLA.ID); err != nil {
				t.Fatalf("Accept %d: %v", i, err)
			}
		}
	}

	before := mustJSON(t, digest(h.broker))
	h.crashAndRecover(t)
	after := mustJSON(t, digest(h.broker))
	if before != after {
		t.Fatalf("state digest changed across crash/recover:\nbefore: %s\nafter:  %s", before, after)
	}
	// The recovered broker keeps its configured intake.
	tk, err := h.broker.Submit(intakeRequest("rec-after"))
	if err != nil {
		t.Fatalf("Submit on recovered broker: %v", err)
	}
	h.broker.FlushIntake()
	if _, err := tk.Wait(); err != nil {
		t.Fatalf("queued admission on recovered broker: %v", err)
	}
}

// TestIntakeClosedFailsQueued: Close (and Crash) must fail every queued
// ticket with ErrClosed — an unresolved ticket would hang its waiter
// forever.
func TestIntakeClosedFailsQueued(t *testing.T) {
	h := newHarness(t, withIntake(IntakeConfig{MaxBatch: 64}))
	b := h.broker

	tickets := make([]*IntakeTicket, 3)
	for i := range tickets {
		tk, err := b.Submit(intakeRequest(fmt.Sprintf("closed-%d", i)))
		if err != nil {
			t.Fatalf("Submit %d: %v", i, err)
		}
		tickets[i] = tk
	}
	b.Close()
	for i, tk := range tickets {
		if _, err := tk.Wait(); !errors.Is(err, ErrClosed) {
			t.Errorf("ticket %d after Close: err = %v, want ErrClosed", i, err)
		}
	}
	if _, err := b.Submit(intakeRequest("late")); !errors.Is(err, ErrClosed) {
		t.Errorf("Submit after Close: err = %v, want ErrClosed", err)
	}
}

// TestIntakeMaxBatchInlineFlush: the MaxBatch-th Submit triggers the
// flush inline — no explicit FlushIntake needed.
func TestIntakeMaxBatchInlineFlush(t *testing.T) {
	h := newHarness(t, withIntake(IntakeConfig{MaxBatch: 4}))
	b := h.broker

	tickets := make([]*IntakeTicket, 4)
	for i := range tickets {
		tk, err := b.Submit(intakeRequest(fmt.Sprintf("inline-%d", i)))
		if err != nil {
			t.Fatalf("Submit %d: %v", i, err)
		}
		tickets[i] = tk
	}
	for i, tk := range tickets {
		if !tk.Resolved() {
			t.Fatalf("ticket %d unresolved after MaxBatch submissions", i)
		}
		if _, err := tk.Wait(); err != nil {
			t.Fatalf("ticket %d: %v", i, err)
		}
	}
}

// TestRequestServiceInlineWhenUncontended: every broker has its intake,
// and an uncontended RequestService goes round it — a batch of one
// admitted on the caller's goroutine, with no ticket and no intake counter
// moved — and announces its request in the activity log, which Submit
// does not. It allocates exactly what the bare pipeline (prepare + admit)
// does, within TestAdmissionCycleAllocGate's bound.
func TestRequestServiceInlineWhenUncontended(t *testing.T) {
	h := newHarness(t)
	b := h.broker
	announced := func(client string) (n int) {
		for _, ev := range b.Events() {
			if ev.Kind == "discovery" && strings.Contains(ev.Msg, strconv.Quote(client)) {
				n++
			}
		}
		return n
	}

	if _, err := b.RequestService(intakeRequest("inline")); err != nil {
		t.Fatal(err)
	}
	if n := b.IntakePending(); n != 0 {
		t.Errorf("IntakePending = %d, want 0", n)
	}
	if s, f := b.intake.submitted.Value(), b.intake.flushes.Value(); s != 0 || f != 0 {
		t.Errorf("intake counters after an inline admission: submitted %d, flushes %d, want 0 and 0", s, f)
	}
	if n := announced("inline"); n != 1 {
		t.Errorf("request lines for the inline admission = %d, want 1", n)
	}

	// The same broker queues: a Submit is taken, flushed once, and
	// writes no request line.
	tk, err := b.Submit(intakeRequest("queued"))
	if err != nil {
		t.Fatalf("Submit on a zero-config broker: %v", err)
	}
	b.FlushIntake()
	if _, err := tk.Wait(); err != nil {
		t.Fatal(err)
	}
	if s, f := b.intake.submitted.Value(), b.intake.flushes.Value(); s != 1 || f != 1 {
		t.Errorf("intake counters after one Submit + flush: submitted %d, flushes %d, want 1 and 1", s, f)
	}
	if n := announced("queued"); n != 0 {
		t.Errorf("request lines for the submitted admission = %d, want 0", n)
	}

	if RaceEnabled() {
		return // allocation counts are not exact under -race
	}
	// Each route on a fresh broker, so both meet the same table growth.
	req := intakeRequest("alloc")
	cycle := func(request func(*Broker) (*Offer, error)) float64 {
		b := newHarness(t).broker
		return testing.AllocsPerRun(200, func() {
			offer, err := request(b)
			if err != nil {
				t.Fatal(err)
			}
			if err := b.Reject(offer.SLA.ID); err != nil {
				t.Fatal(err)
			}
		})
	}
	inline := cycle(func(b *Broker) (*Offer, error) { return b.RequestService(req) })
	bare := cycle(func(b *Broker) (*Offer, error) {
		m, err := b.prepare(req, true)
		if err != nil {
			return nil, err
		}
		b.admit([]*admission{m})
		return m.offer, m.err
	})
	if inline != bare {
		t.Errorf("inline request+reject allocates %.0f objects, the bare pipeline %.0f", inline, bare)
	}
	if inline > AdmissionCycleAllocGate {
		t.Errorf("inline request+reject allocates %.0f objects, gate is %d", inline, AdmissionCycleAllocGate)
	}
	t.Logf("inline request+reject on the harness: %.0f allocs", inline)
}

// heldRM is the compute manager whose next Reserve, once armed, blocks
// until release closes; entered closes when that Reserve begins.
type heldRM struct {
	gara.ResourceManager
	armed            atomic.Bool
	entered, release chan struct{}
}

func (m *heldRM) Reserve(spec *rsl.Node, start, end time.Time, tag string) (string, error) {
	if m.armed.CompareAndSwap(true, false) {
		close(m.entered)
		<-m.release
	}
	return m.ResourceManager.Reserve(spec, start, end, tag)
}

// TestRequestServiceJoinsRunningFlush: requests that arrive while an
// admission holds the leader lock — here an inline one blocked inside the
// RM's Create — queue instead of running beside it, and the next flush
// admits them together as one group commit.
func TestRequestServiceJoinsRunningFlush(t *testing.T) {
	h := newHarness(t)
	b := h.broker
	rm := &heldRM{ResourceManager: gara.NewComputeManager(h.pool), entered: make(chan struct{}), release: make(chan struct{})}
	rm.armed.Store(true)
	h.g.RegisterManager(rm)

	clients := []string{"leader", "rider-1", "rider-2"}
	offers := make([]*Offer, len(clients))
	errs := make([]error, len(clients))
	var wg sync.WaitGroup
	request := func(i int) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			offers[i], errs[i] = b.RequestService(intakeRequest(clients[i]))
		}()
	}
	request(0)
	<-rm.entered
	flushes, batches, batched := b.intake.flushes.Value(), b.intake.batchSize.Count(), b.intake.batchSize.Sum()
	request(1)
	request(2)
	for deadline := time.Now().Add(10 * time.Second); b.IntakePending() < 2; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("IntakePending = %d behind the blocked leader, want 2", b.IntakePending())
		}
	}
	close(rm.release)
	wg.Wait()

	if got := b.intake.flushes.Value() - flushes; got != 1 {
		t.Errorf("flushes after the leader = %d, want 1", got)
	}
	if n, sum := b.intake.batchSize.Count()-batches, b.intake.batchSize.Sum()-batched; n != 1 || sum != 2 {
		t.Errorf("batches after the leader: %d holding %g admissions, want 1 holding 2", n, sum)
	}
	for i, offer := range offers {
		if errs[i] != nil || offer == nil || offer.SLA == nil {
			t.Errorf("%s: offer %v, err %v", clients[i], offer, errs[i])
		}
	}
	if n := b.IntakePending(); n != 0 {
		t.Errorf("IntakePending = %d after the flush, want 0", n)
	}
}

// TestIntakeBudgetRefusalBurnsNoID: a member refused for budget inside a
// batch must not consume an SLA ID, so the surviving members' IDs — and
// therefore every downstream digest — match a run where the refused
// request never arrived.
func TestIntakeBudgetRefusalBurnsNoID(t *testing.T) {
	h := newHarness(t, withIntake(IntakeConfig{MaxBatch: 32}))
	b := h.broker

	rich := intakeRequest("payer")
	poor := intakeRequest("pauper")
	poor.Budget = 0.000001 // below any quoted price

	tkPoor, err := b.Submit(poor)
	if err != nil {
		t.Fatal(err)
	}
	tkRich, err := b.Submit(rich)
	if err != nil {
		t.Fatal(err)
	}
	b.FlushIntake()
	if _, err := tkPoor.Wait(); !errors.Is(err, ErrOverBudget) {
		t.Fatalf("pauper: err = %v, want ErrOverBudget", err)
	}
	offer, err := tkRich.Wait()
	if err != nil {
		t.Fatalf("payer: %v", err)
	}

	// A clean broker admitting only the payer must mint the same ID.
	ref := newHarness(t, withIntake(IntakeConfig{MaxBatch: 32}))
	refOffer, err := ref.broker.RequestService(rich)
	if err != nil {
		t.Fatal(err)
	}
	if offer.SLA.ID != refOffer.SLA.ID {
		t.Errorf("budget refusal burned an SLA ID: got %s, want %s", offer.SLA.ID, refOffer.SLA.ID)
	}
}

// intakeBatch is the batch size the admission benchmark and its
// allocation gate drive the group-commit path at.
const intakeBatch = 8

// intakeRig is the fixture they share: an intake-enabled broker, one
// batch of requests and the slices a round reuses.
type intakeRig struct {
	h       *harness
	reqs    []Request
	tickets []*IntakeTicket
	ids     []sla.ID
}

func newIntakeRig(tb testing.TB) *intakeRig {
	r := &intakeRig{
		h:       newHarness(tb, withIntake(IntakeConfig{MaxBatch: 64})),
		reqs:    make([]Request, intakeBatch),
		tickets: make([]*IntakeTicket, intakeBatch),
		ids:     make([]sla.ID, 0, intakeBatch),
	}
	for i := range r.reqs {
		r.reqs[i] = intakeRequest(fmt.Sprintf("bench-intake-%d", i))
	}
	return r
}

// round is one group commit: Submit x 8, one FlushIntake (one allocator
// pass), Wait on each ticket. It is what the benchmark times and the gate
// counts.
func (r *intakeRig) round(tb testing.TB) {
	for i, req := range r.reqs {
		tk, err := r.h.broker.Submit(req)
		if err != nil {
			tb.Fatal(err)
		}
		r.tickets[i] = tk
	}
	r.h.broker.FlushIntake()
	r.ids = r.ids[:0]
	for _, tk := range r.tickets {
		offer, err := tk.Wait()
		if err != nil {
			tb.Fatal(err)
		}
		r.ids = append(r.ids, offer.SLA.ID)
	}
}

// cleanup rejects the round's offers and prunes, so the next round meets
// the same tables and the same free capacity.
func (r *intakeRig) cleanup(tb testing.TB) {
	for _, id := range r.ids {
		if err := r.h.broker.Reject(id); err != nil {
			tb.Fatal(err)
		}
	}
	r.h.broker.PruneTerminal()
	r.h.g.PruneCanceled()
}

// BenchmarkIntakeAdmission measures amortized admission cost through the
// group-commit path at batch 8. Rejection and pruning are untimed
// cleanup, mirroring the request/reject discipline of
// BenchmarkSerialAdmission.
func BenchmarkIntakeAdmission(b *testing.B) {
	rig := newIntakeRig(b)
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n += intakeBatch {
		rig.round(b)
		b.StopTimer()
		rig.cleanup(b)
		b.StartTimer()
	}
}

// AdmissionCycleAllocGate bounds the objects one request/reject pair
// allocates on the inline admission route (measured 18 on the stress
// cluster and 17 on the harness, go1.24; 22 and 21 while each RM call
// allocated a closure, 25 and 24 while each activity-log line was its
// own string, 30 and 29 while GARA kept a reservation's parts in a map
// and a slice per tag, 36 and 34 when the admission path became one, 52
// while the SLA ID and capacities went through fmt). Exported for the
// gate in package core_test.
const AdmissionCycleAllocGate = 18

// RaceEnabled reports whether the test binary was built with -race. The
// exact allocation gates skip there: the detector makes sync.Pool drop
// items at random, so a pooled path no longer allocates a fixed count.
// Exported for the gate in package core_test.
func RaceEnabled() bool {
	info, _ := debug.ReadBuildInfo()
	return info != nil && slices.ContainsFunc(info.Settings, func(s debug.BuildSetting) bool {
		return s.Key == "-race" && s.Value == "true"
	})
}

// TestIntakeAdmissionAllocGate is the deterministic allocation gate for
// the group-commit path: 25 rounds of BenchmarkIntakeAdmission's timed
// body (its -benchtime=200x), cleanup uncounted, at most 19 objects per
// admission.
func TestIntakeAdmissionAllocGate(t *testing.T) {
	if RaceEnabled() {
		t.Skip("allocation counts are not exact under -race")
	}
	rig := newIntakeRig(t)
	const rounds, gate = 25, 19 // measured 19.3 (go1.24); 22.3 while each RM call allocated a closure, 26.4 while GARA kept a reservation's parts in a map and a slice per tag, 31 when first gated
	var total float64
	for r := 0; r < rounds; r++ {
		// AllocsPerRun calls its function once to warm up before the counted
		// call; a second uncleaned batch would not fit the guaranteed
		// partition, so the warm-up call does nothing.
		warm := true
		total += testing.AllocsPerRun(1, func() {
			if warm {
				warm = false
				return
			}
			rig.round(t)
		})
		rig.cleanup(t)
	}
	perAdmission := math.Floor(total / (rounds * intakeBatch))
	if perAdmission > gate {
		t.Errorf("batched admission allocates %.0f objects per admission (%.0f over %d rounds of %d), gate is %d",
			perAdmission, total, rounds, intakeBatch, gate)
	}
	t.Logf("batched admission: %.1f allocs per admission", total/(rounds*intakeBatch))
}
