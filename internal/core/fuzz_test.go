package core_test

import (
	"math/rand"
	"strconv"
	"testing"
	"time"

	"gqosm/internal/core"
	"gqosm/internal/invariant"
	"gqosm/internal/resource"
	"gqosm/internal/sim"
	"gqosm/internal/sla"
	"gqosm/internal/stack"
)

// This file drives the broker with arbitrary operation streams and checks
// the full invariant suite after every step. The driver decodes a byte
// string into lifecycle operations, so the same code serves both the
// deterministic regression test (a fixed pseudo-random stream) and the
// native fuzz target FuzzBrokerOps (corpus under
// testdata/fuzz/FuzzBrokerOps, grown by `go test -fuzz=FuzzBrokerOps`).

// driveOps decodes data as (op, arg) byte pairs and applies them to a
// fresh single-site cluster, running invariant.CheckAll after each step.
//
// op%11 selects the operation, arg parameterizes it:
//
//	0..2  service request   arg bit0: guaranteed/controlled-load,
//	                        bits1-3: CPU, bits4-6: duration, bit7: degrade-ok
//	3     accept            arg indexes the proposed set
//	4     reject            arg indexes the proposed set
//	5     invoke            arg indexes the active set
//	6     terminate         arg indexes the active set
//	7     advance clock     10 + arg minutes, then ExpireDue
//	8     failure/recovery  arg bit0 chooses; bits1-3: failed nodes
//	9     best-effort churn arg picks client and request/release; optimizer
//	10    renegotiate       arg indexes the active set (low bits) and sets
//	                        the new spec's width (high bits) — the
//	                        reneg-storm squeeze/stretch cycle
func driveOps(t *testing.T, data []byte) {
	t.Helper()
	cluster, err := sim.NewCluster(stack.Config{Plan: sim.DefaultParallelPlan()})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	b := cluster.Broker
	clock := cluster.Clock

	var proposed, active []sla.ID
	pop := func(ids *[]sla.ID, arg byte) (sla.ID, bool) {
		if len(*ids) == 0 {
			return "", false
		}
		i := int(arg) % len(*ids)
		id := (*ids)[i]
		*ids = append((*ids)[:i], (*ids)[i+1:]...)
		return id, true
	}

	for step := 0; step+1 < len(data); step += 2 {
		op, arg := data[step]%11, data[step+1]
		switch {
		case op <= 2: // new request
			now := clock.Now()
			cpu := float64(1 + (arg>>1)&7)
			end := now.Add(time.Duration(1+(arg>>4)&7) * time.Hour)
			var req core.Request
			if arg&1 == 0 {
				req = core.Request{
					Service: "simulation",
					Client:  "fuzz-g" + strconv.Itoa(step),
					Class:   sla.ClassGuaranteed,
					Spec:    sla.NewSpec(sla.Exact(resource.CPU, cpu)),
					Start:   now,
					End:     end,
				}
			} else {
				req = core.Request{
					Service:           "simulation",
					Client:            "fuzz-c" + strconv.Itoa(step),
					Class:             sla.ClassControlledLoad,
					Spec:              sla.NewSpec(sla.Range(resource.CPU, cpu, cpu+float64((arg>>4)&7))),
					Start:             now,
					End:               end,
					AcceptDegradation: arg&0x80 != 0,
				}
			}
			if offer, err := b.RequestService(req); err == nil {
				proposed = append(proposed, offer.SLA.ID)
			}
		case op == 3: // accept
			if id, ok := pop(&proposed, arg); ok {
				if err := b.Accept(id); err == nil {
					active = append(active, id)
				}
			}
		case op == 4: // reject
			if id, ok := pop(&proposed, arg); ok {
				_ = b.Reject(id)
			}
		case op == 5: // invoke
			if len(active) > 0 {
				_, _ = b.Invoke(active[int(arg)%len(active)])
			}
		case op == 6: // terminate
			if id, ok := pop(&active, arg); ok {
				_ = b.Terminate(id, "fuzz")
			}
		case op == 7: // time passes; offers expire, sessions lapse
			clock.Advance(time.Duration(10+int(arg)) * time.Minute)
			b.ExpireDue()
		case op == 8: // failure / recovery
			if arg&1 == 0 {
				b.NotifyFailure(resource.Nodes(float64((arg >> 1) & 7)))
			} else {
				b.NotifyFailure(resource.Capacity{})
			}
		case op == 9: // best-effort churn + optimizer
			client := "fuzz-be" + strconv.Itoa(int(arg)%4)
			if arg&4 == 0 {
				_ = b.BestEffortRequest(client, resource.Nodes(float64(1+(arg>>3)&7)))
			} else {
				_ = b.BestEffortRelease(client)
			}
			_, _ = b.RunOptimizer()
		case op == 10: // renegotiate: squeeze or stretch a live session
			if len(active) > 0 {
				id := active[int(arg)%len(active)]
				hi := 1 + float64((arg>>4)&7)
				_, _ = b.Renegotiate(id, sla.NewSpec(sla.Range(resource.CPU, 1, hi)))
			}
		}

		if err := invariant.CheckAll(b, clock.Now(), cluster.Pool); err != nil {
			t.Fatalf("step %d (op %d, arg %#x): %v", step/2, op, arg, err)
		}
	}
}

// driveShardedOps decodes data as (op, arg, hint) byte triples and
// applies them to a sharded cluster, running invariant.CheckAll after
// each step. op and arg mean exactly what they do in driveOps; the extra
// hint byte sets Request.ShardHint for request operations
// (hint % (shards+1): 0 lets the placement layer pick, 1..shards pins),
// so the fuzzer can steer traffic onto one shard until it overflows and
// the cross-shard fallback chain runs.
func driveShardedOps(t *testing.T, shards int, data []byte) {
	t.Helper()
	cluster, err := sim.NewCluster(stack.Config{Plan: sim.DefaultParallelPlan(), Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	b := cluster.Broker
	clock := cluster.Clock

	var proposed, active []sla.ID
	pop := func(ids *[]sla.ID, arg byte) (sla.ID, bool) {
		if len(*ids) == 0 {
			return "", false
		}
		i := int(arg) % len(*ids)
		id := (*ids)[i]
		*ids = append((*ids)[:i], (*ids)[i+1:]...)
		return id, true
	}

	for step := 0; step+2 < len(data); step += 3 {
		op, arg, hint := data[step]%11, data[step+1], int(data[step+2])%(shards+1)
		switch {
		case op <= 2: // new request, optionally pinned to a shard
			now := clock.Now()
			cpu := float64(1 + (arg>>1)&7)
			end := now.Add(time.Duration(1+(arg>>4)&7) * time.Hour)
			var req core.Request
			if arg&1 == 0 {
				req = core.Request{
					Service:   "simulation",
					Client:    "fuzz-g" + strconv.Itoa(step),
					Class:     sla.ClassGuaranteed,
					Spec:      sla.NewSpec(sla.Exact(resource.CPU, cpu)),
					Start:     now,
					End:       end,
					ShardHint: hint,
				}
			} else {
				req = core.Request{
					Service:           "simulation",
					Client:            "fuzz-c" + strconv.Itoa(step),
					Class:             sla.ClassControlledLoad,
					Spec:              sla.NewSpec(sla.Range(resource.CPU, cpu, cpu+float64((arg>>4)&7))),
					Start:             now,
					End:               end,
					AcceptDegradation: arg&0x80 != 0,
					ShardHint:         hint,
				}
			}
			if offer, err := b.RequestService(req); err == nil {
				proposed = append(proposed, offer.SLA.ID)
			}
		case op == 3:
			if id, ok := pop(&proposed, arg); ok {
				if err := b.Accept(id); err == nil {
					active = append(active, id)
				}
			}
		case op == 4:
			if id, ok := pop(&proposed, arg); ok {
				_ = b.Reject(id)
			}
		case op == 5:
			if len(active) > 0 {
				_, _ = b.Invoke(active[int(arg)%len(active)])
			}
		case op == 6:
			if id, ok := pop(&active, arg); ok {
				_ = b.Terminate(id, "fuzz")
			}
		case op == 7:
			clock.Advance(time.Duration(10+int(arg)) * time.Minute)
			b.ExpireDue()
		case op == 8:
			if arg&1 == 0 {
				b.NotifyFailure(resource.Nodes(float64((arg >> 1) & 7)))
			} else {
				b.NotifyFailure(resource.Capacity{})
			}
		case op == 9:
			client := "fuzz-be" + strconv.Itoa(int(arg)%4)
			if arg&4 == 0 {
				_ = b.BestEffortRequest(client, resource.Nodes(float64(1+(arg>>3)&7)))
			} else {
				_ = b.BestEffortRelease(client)
			}
			_, _ = b.RunOptimizer()
		case op == 10: // renegotiate
			if len(active) > 0 {
				id := active[int(arg)%len(active)]
				hi := 1 + float64((arg>>4)&7)
				_, _ = b.Renegotiate(id, sla.NewSpec(sla.Range(resource.CPU, 1, hi)))
			}
		}

		if err := invariant.CheckAll(b, clock.Now(), cluster.Pool); err != nil {
			t.Fatalf("shards %d step %d (op %d, arg %#x, hint %d): %v",
				shards, step/3, op, arg, hint, err)
		}
	}
}

// seedStream reproduces the historical deterministic workload: 600
// operations drawn from rand.NewSource(seed).
func seedStream(seed int64, steps int) []byte {
	rng := rand.New(rand.NewSource(seed))
	data := make([]byte, 2*steps)
	rng.Read(data)
	return data
}

// TestBrokerRandomOperationsInvariants is the deterministic regression:
// the seed-1955 stream (Middleware's CACM year) must hold every invariant
// at every step.
func TestBrokerRandomOperationsInvariants(t *testing.T) {
	driveOps(t, seedStream(1955, 600))
}

// TestBrokerShardedRandomOperationsInvariants is the sharded counterpart:
// the same class of pseudo-random stream, decoded as (op, arg, hint)
// triples, must hold every invariant on 2- and 4-shard brokers too.
func TestBrokerShardedRandomOperationsInvariants(t *testing.T) {
	for _, shards := range []int{2, 4} {
		shards := shards
		t.Run(strconv.Itoa(shards), func(t *testing.T) {
			driveShardedOps(t, shards, seedStream(1955, 400))
		})
	}
}

// FuzzBrokerOps lets the fuzzer search for operation interleavings that
// break the invariants: go test -fuzz=FuzzBrokerOps ./internal/core
//
// The first byte selects the shard count (data[0]%4: 0 keeps the classic
// single-shard broker and the legacy 2-byte op stream; 1–3 run a 2/3/4
// shard broker over 3-byte ops whose third byte is the placement hint).
func FuzzBrokerOps(f *testing.F) {
	// Legacy single-shard seeds, shifted behind a zero shard byte.
	f.Add(append([]byte{0}, seedStream(1955, 40)...))
	f.Add(append([]byte{0}, seedStream(2003, 40)...))
	// A clean lifecycle: request, accept, invoke, wait, terminate.
	f.Add(append([]byte{0}, 0, 0x22, 3, 0, 5, 0, 7, 50, 6, 0))
	// Failure pressure on a controlled-load session that may degrade.
	f.Add(append([]byte{0}, 1, 0xa3, 3, 0, 5, 0, 8, 4, 8, 1, 6, 0))
	// Offer-expiry vs accept races and best-effort churn.
	f.Add(append([]byte{0}, 2, 0x12, 7, 120, 3, 0, 9, 2, 9, 6, 7, 200))
	// Cross-shard fallback on 2 shards: two fat requests pinned to shard
	// 1 — the second overflows it and must fall back — then both accepted
	// and one terminated under failure pressure.
	f.Add([]byte{1, 0, 0x08, 1, 0, 0x08, 1, 3, 0, 0, 3, 0, 0, 8, 2, 0, 6, 0, 0})
	// 4 shards, auto-placement vs pinned churn with the optimizer running.
	f.Add([]byte{3, 0, 0x06, 0, 1, 0x85, 2, 0, 0x06, 3, 3, 0, 0, 9, 2, 0, 3, 0, 0, 7, 60, 0, 6, 0, 0})
	f.Add(append([]byte{2}, seedStream(1789, 40)...))
	// Reneg-storm shape: admit a pack of degrade-willing controlled-load
	// sessions, then hammer them with alternating squeeze (narrow spec)
	// and stretch (wide spec) renegotiations before tearing one down.
	f.Add(append([]byte{0},
		1, 0xa7, 1, 0xa5, 1, 0xa3, 3, 0, 3, 0, 3, 0,
		10, 0x00, 10, 0x71, 10, 0x12, 10, 0x60, 10, 0x01,
		6, 0, 10, 0x70, 10, 0x02))
	// Lease-churn shape: short offers abandoned into expiry (op 7 sweeps
	// the confirm window), immediately re-requested, accepted at the
	// last index, and renegotiated right before time runs the lease out.
	f.Add(append([]byte{0},
		0, 0x12, 2, 0x14, 7, 0, 0, 0x12, 3, 1, 4, 0,
		10, 0x30, 7, 120, 0, 0x16, 3, 0, 10, 0x20, 7, 200))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 4096 {
			data = data[:4096] // bound runtime per input
		}
		if len(data) == 0 {
			return
		}
		shards := 1 + int(data[0]%4)
		if shards == 1 {
			driveOps(t, data[1:])
			return
		}
		driveShardedOps(t, shards, data[1:])
	})
}

// FuzzPolicyDecisions lets the fuzzer search for an operation stream on
// which consulting a shadow policy changes live behavior — the property
// the shadow-inertness invariant forbids. Each input is run twice, with
// shadowing off and on, and every externally visible outcome (plus the
// final capacity accounting) must match; the invariant oracle runs after
// each step of both runs. The candidate pool includes test-mutator, a
// policy that scribbles on every view it is handed, so a view that
// stopped being a copy is caught even if the honest candidates never
// write to it. go test -fuzz=FuzzPolicyDecisions ./internal/core
//
// data[0] selects the candidate, data[1] the shard count (1–3), and the
// rest is the driveOps/driveShardedOps op stream.
func FuzzPolicyDecisions(f *testing.F) {
	f.Add(append([]byte{0, 0}, seedStream(1955, 40)...))
	f.Add(append([]byte{1, 0}, seedStream(2003, 40)...))
	f.Add(append([]byte{0, 1}, seedStream(1789, 40)...))
	// Saturate the guaranteed partition so revenue-greedy diverges while
	// the paper policy keeps refusing.
	f.Add(append([]byte{0, 0}, 0, 0x0e, 3, 0, 0, 0x0e, 3, 0, 0, 0x0e, 3, 0, 0, 0x0e))
	// Degrade-willing sessions under failure pressure: compensation and
	// restoration re-grant live sessions with the mutator consulted.
	f.Add(append([]byte{1, 0}, 1, 0xa7, 1, 0xa5, 1, 0xa3, 3, 0, 3, 0, 3, 0, 8, 8, 8, 12))
	// The mutator on a sharded broker: one consulting allocator per shard.
	f.Add(append([]byte{1, 2}, seedStream(1955, 40)...))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 2048 {
			data = data[:2048]
		}
		if len(data) < 2 {
			return
		}
		candidates := []string{"revenue-greedy", "test-mutator"}
		candidate := candidates[int(data[0])%len(candidates)]
		shards := 1 + int(data[1])%3
		driveTwin(t, candidate, shards, data[2:])
	})
}
