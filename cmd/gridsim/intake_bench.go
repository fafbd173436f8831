// The -intake-bench mode measures the amortized cost of one admission
// over the three routes into the one admission pipeline — an inline
// RequestService call, the group-commit intake at increasing batch sizes, and the
// compact JSON/HTTP transport over a loopback listener — and emits the
// report committed as BENCH_intake.json: every number is wall-clock, so
// the rows live under its latency key and the verdict is the target_met
// gate. It exits non-zero when the batched path misses the sub-10 µs
// amortized target at batch 8, so CI can gate on the committed claim
// staying true.
package main

import (
	"fmt"
	"net"
	"net/http"
	"sync"
	"time"

	"gqosm"
	"gqosm/internal/httpapi"
	"gqosm/internal/sim"
)

// intakeBenchAdmissions is the per-row sample size: large enough that
// fixed costs (listener start, first-batch warmup) vanish in the mean.
const intakeBenchAdmissions = 4096

// intakeBenchTargetNS is the acceptance threshold: amortized admission
// cost through the batch path at batch >= 8.
const intakeBenchTargetNS = 10000

type intakeBenchRow struct {
	// Transport is "direct", "intake", or "http"; Batch is the group
	// size for intake rows (0 elsewhere).
	Transport      string  `json:"transport"`
	Batch          int     `json:"batch,omitempty"`
	Admissions     int     `json:"admissions"`
	NsPerAdmission float64 `json:"ns_per_admission"`
}

// intakeBenchStack builds a fresh broker sized so the largest batch of
// 1-CPU guaranteed asks fits the guaranteed pool with room to spare.
func intakeBenchStack(batch int) (*gqosm.Stack, error) {
	return gqosm.NewStack(gqosm.StackConfig{
		Domain: "bench",
		Clock:  gqosm.NewManualClock(sim.Epoch),
		Plan: gqosm.CapacityPlan{
			Guaranteed: gqosm.Capacity{CPU: 48, MemoryMB: 65536, DiskGB: 1024},
			Adaptive:   gqosm.Capacity{CPU: 8, MemoryMB: 8192, DiskGB: 128},
			BestEffort: gqosm.Capacity{CPU: 8, MemoryMB: 8192, DiskGB: 128},
		},
		ConfirmWindow: time.Hour,
		Intake:        gqosm.IntakeConfig{Enabled: batch > 0, MaxBatch: 64},
	})
}

// intakeBenchPrune bounds the working set between timed sections: a
// long-lived broker prunes terminal sessions and canceled reservations
// (exactly what the soak harness does at quiesce points), so the rows
// report steady-state admission cost, not cost against an ever-growing
// table that no deployment would keep.
func intakeBenchPrune(stack *gqosm.Stack) {
	stack.Broker.PruneTerminal()
	stack.GARA.PruneCanceled()
	stack.GRAM.PruneTerminal()
}

func intakeBenchRequest(stack *gqosm.Stack, i int) gqosm.Request {
	now := stack.Clock.Now()
	return gqosm.Request{
		Service: "simulation",
		Client:  fmt.Sprintf("bench-%d", i),
		Class:   gqosm.ClassGuaranteed,
		Spec:    gqosm.NewSpec(gqosm.Exact(gqosm.CPU, 1)),
		Start:   now,
		End:     now.Add(time.Hour),
	}
}

// benchDirect times the inline route (no queue): one RequestService per
// admission, rejected and pruned (untimed) on the cadence of the batch-1
// intake row, so the two rows differ by the route and not by how many
// terminal sessions and canceled reservations the tables hold.
func benchDirect() (intakeBenchRow, error) {
	stack, err := intakeBenchStack(0)
	if err != nil {
		return intakeBenchRow{}, err
	}
	defer stack.Close()
	var elapsed time.Duration
	for i := 0; i < intakeBenchAdmissions; i++ {
		req := intakeBenchRequest(stack, i)
		t := time.Now()
		offer, err := stack.Broker.RequestService(req)
		elapsed += time.Since(t)
		if err != nil {
			return intakeBenchRow{}, fmt.Errorf("direct admission %d: %w", i, err)
		}
		if err := stack.Broker.Reject(offer.SLA.ID); err != nil {
			return intakeBenchRow{}, fmt.Errorf("direct reject %d: %w", i, err)
		}
		intakeBenchPrune(stack)
	}
	return intakeBenchRow{
		Transport:      "direct",
		Admissions:     intakeBenchAdmissions,
		NsPerAdmission: float64(elapsed.Nanoseconds()) / intakeBenchAdmissions,
	}, nil
}

// benchIntake times the group-commit path at a fixed batch size: Submit
// x batch, one FlushIntake (one allocator pass, one WAL fsync when
// durable), Wait each ticket. Rejection is untimed cleanup.
func benchIntake(batch int) (intakeBenchRow, error) {
	stack, err := intakeBenchStack(batch)
	if err != nil {
		return intakeBenchRow{}, err
	}
	defer stack.Close()
	rounds := intakeBenchAdmissions / batch
	admissions := rounds * batch
	var elapsed time.Duration
	ids := make([]gqosm.SLAID, 0, batch)
	for r := 0; r < rounds; r++ {
		reqs := make([]gqosm.Request, batch)
		for i := range reqs {
			reqs[i] = intakeBenchRequest(stack, r*batch+i)
		}
		t := time.Now()
		tickets := make([]*gqosm.IntakeTicket, batch)
		for i, req := range reqs {
			tk, err := stack.Broker.Submit(req)
			if err != nil {
				return intakeBenchRow{}, fmt.Errorf("batch %d submit %d: %w", batch, i, err)
			}
			tickets[i] = tk
		}
		stack.Broker.FlushIntake()
		ids = ids[:0]
		for i, tk := range tickets {
			offer, err := tk.Wait()
			if err != nil {
				return intakeBenchRow{}, fmt.Errorf("batch %d wait %d: %w", batch, i, err)
			}
			ids = append(ids, offer.SLA.ID)
		}
		elapsed += time.Since(t)
		for _, id := range ids {
			if err := stack.Broker.Reject(id); err != nil {
				return intakeBenchRow{}, fmt.Errorf("batch %d reject: %w", batch, err)
			}
		}
		intakeBenchPrune(stack)
	}
	return intakeBenchRow{
		Transport:      "intake",
		Batch:          batch,
		Admissions:     admissions,
		NsPerAdmission: float64(elapsed.Nanoseconds()) / float64(admissions),
	}, nil
}

// benchHTTP times the JSON transport end to end: 8 concurrent workers
// POST /api/v1/request against a loopback listener (the broker's intake
// is on, so concurrent requests share batches) and
// reject over the wire, untimed. The row reports mean request latency.
func benchHTTP() (intakeBenchRow, error) {
	stack, err := intakeBenchStack(8)
	if err != nil {
		return intakeBenchRow{}, err
	}
	defer stack.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return intakeBenchRow{}, err
	}
	srv := &http.Server{Handler: httpapi.NewServer(stack.Broker)}
	go srv.Serve(ln) //nolint:errcheck // shut down via Close below
	defer srv.Close()

	const workers = 8
	perWorker := intakeBenchAdmissions / workers
	elapsed := make([]time.Duration, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			client := gqosm.NewJSONBrokerClient("http://" + ln.Addr().String())
			for i := 0; i < perWorker; i++ {
				req := intakeBenchRequest(stack, w*perWorker+i)
				t := time.Now()
				offer, err := client.RequestService(req)
				elapsed[w] += time.Since(t)
				if err != nil {
					errs[w] = fmt.Errorf("worker %d admission %d: %w", w, i, err)
					return
				}
				if _, err := client.Act(gqosm.SLAID(offer.SLAID), "reject", ""); err != nil {
					errs[w] = fmt.Errorf("worker %d reject %d: %w", w, i, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	var total time.Duration
	for w := 0; w < workers; w++ {
		if errs[w] != nil {
			return intakeBenchRow{}, errs[w]
		}
		total += elapsed[w]
	}
	return intakeBenchRow{
		Transport:      "http",
		Admissions:     perWorker * workers,
		NsPerAdmission: float64(total.Nanoseconds()) / float64(perWorker*workers),
	}, nil
}

// runIntakeBench measures every row. The gate is the committed
// acceptance target: amortized admission through the batch path at
// batch 8 stays under 10 µs.
func runIntakeBench(*options) (*sim.Report, error) {
	row, err := benchDirect()
	if err != nil {
		return nil, err
	}
	rows := []intakeBenchRow{row}
	var batch8 float64
	for _, batch := range []int{1, 2, 4, 8, 16, 32} {
		row, err := benchIntake(batch)
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
		if batch == 8 {
			batch8 = row.NsPerAdmission
		}
	}
	row, err = benchHTTP()
	if err != nil {
		return nil, err
	}
	rep := sim.NewReport("intake-bench",
		map[string]any{"admissions": intakeBenchAdmissions, "target_ns": intakeBenchTargetNS}, nil)
	rep.Latency = map[string]any{"rows": append(rows, row), "amortized_batch8_ns": batch8}
	rep.Oracle.Gates["target_met"] = batch8 <= intakeBenchTargetNS
	return rep.Seal(), nil
}
