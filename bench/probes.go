package main

import (
	"encoding/xml"
	"fmt"
	"os"
	"sort"
	"time"

	"gqosm/internal/clockx"
	"gqosm/internal/core"
	"gqosm/internal/gara"
	"gqosm/internal/pricing"
	"gqosm/internal/registry"
	"gqosm/internal/resource"
	"gqosm/internal/rsl"
	"gqosm/internal/sla"
	"gqosm/internal/soapx"
	"gqosm/internal/wal"
	"gqosm/internal/xmlmsg"
)

// probeInputs is what a traced pass captured for the layer probes. Where
// the workload has no seams the probes fall back to one canned request of
// the generator's shape.
type probeInputs struct {
	rsl   []string
	query *registry.Query
	doc   *sla.Document
}

const cannedRSL = `&(reservation-type="compute")(count=2)(memory=256)(disk=2)`

// timeOps runs op samples×batch times and returns the per-op durations of
// each sample, ascending, in nanoseconds. A batch above 1 keeps the clock
// reads out of operations that take tens of nanoseconds.
func timeOps(samples, batch int, op func()) []float64 {
	ns := make([]float64, samples)
	for i := range ns {
		t := time.Now()
		for j := 0; j < batch; j++ {
			op()
		}
		ns[i] = float64(time.Since(t)) / float64(batch)
	}
	sort.Float64s(ns)
	return ns
}

func medianOp(samples, batch int, op func()) float64 {
	return quantileSorted(timeOps(samples, batch, op), 0.5)
}

// runProbes times each layer's public function on its own, fed the
// workload's captured inputs at fixed standing-set sizes, so a layer's
// cost can be read apart from the lifecycle round it.
func runProbes(in probeInputs, workdir string) (map[string]float64, error) {
	if len(in.rsl) == 0 {
		in.rsl = []string{cannedRSL}
	}
	floor := resource.Capacity{CPU: 1, MemoryMB: 128, DiskGB: 1}
	if in.query == nil {
		in.query = &registry.Query{NamePattern: "simulation", Filters: []registry.Filter{
			{Name: "cpu-nodes", Op: registry.OpGe, Value: "1"}, {Name: "memory-mb", Op: registry.OpGe, Value: "128"}}}
	}
	now := epoch
	if in.doc == nil {
		in.doc = &sla.Document{ID: "probe-sla-0001", Service: "simulation", Client: "probe", Provider: "node-1",
			Class: sla.ClassGuaranteed, Spec: exactSpec(2, 2), Start: now, End: now.Add(time.Hour),
			Allocated: resource.Capacity{CPU: 2, MemoryMB: 256, DiskGB: 2}, State: sla.StateActive}
	}
	v := make(map[string]float64)
	var firstErr error
	fail := func(err error) {
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}

	// rsl, registry, sla, soapx: pure functions of captured inputs.
	i := 0
	next := func() string { i++; return in.rsl[i%len(in.rsl)] }
	v["rsl.parse_ns"] = medianOp(200, 16, func() { _, err := rsl.Parse(next()); fail(err) })
	v["rsl.parse_cached_ns"] = medianOp(200, 64, func() { _, err := rsl.ParseCached(next()); fail(err) })

	reg := registry.New(clockx.NewManual(epoch))
	_, err := reg.Register(registry.Service{Name: "simulation", Provider: "node-1", Properties: []registry.Property{
		registry.NumProp("cpu-nodes", 264), registry.NumProp("memory-mb", 135168),
		registry.NumProp("disk-gb", 2640), registry.NumProp("bandwidth-mbps", 1000)}})
	fail(err)
	v["registry.find_ns"] = medianOp(200, 16, func() { _, err := reg.Find(*in.query); fail(err) })

	v["sla.xml_roundtrip_us"] = medianOp(200, 1, func() {
		data, err := xml.Marshal(sla.EncodeDocument(in.doc))
		fail(err)
		var back sla.ServiceSLAXML
		fail(xml.Unmarshal(data, &back))
		_, err = sla.DecodeDocument(back)
		fail(err)
	}) / 1e3
	offer := &xmlmsg.ServiceOfferXML{SLA: sla.EncodeDocument(in.doc), Price: 12.5, Expires: now.Format(xmlmsg.TimeLayout)}
	v["soapx.marshal_offer_us"] = medianOp(200, 1, func() { _, err := soapx.Marshal(offer); fail(err) }) / 1e3
	reqXML, err := soapx.Marshal(&xmlmsg.ServiceRequestXML{Service: "simulation", Client: "probe", Class: in.doc.Class.String(),
		Params: xmlmsg.EncodeSpec(in.doc.Spec), Start: now.Format(xmlmsg.TimeLayout), End: now.Add(time.Hour).Format(xmlmsg.TimeLayout)})
	fail(err)
	v["soapx.unmarshal_request_us"] = medianOp(200, 1, func() {
		var req xmlmsg.ServiceRequestXML
		fail(soapx.Unmarshal(reqXML, &req))
	}) / 1e3

	// Optimizer and allocator at the workloads' live-set sizes.
	for _, k := range []int{8, 64} {
		problem := core.OptProblem{Capacity: lifecyclePlan.Guaranteed}
		alloc, err := core.NewAllocator(lifecyclePlan)
		fail(err)
		for j := 0; j < k; j++ {
			spec := exactSpec(float64(j%3+1), float64(j%4+1))
			if j%4 == 3 {
				spec = sla.NewSpec(sla.Range(resource.CPU, 1, float64(j%3+2)), sla.Exact(resource.MemoryMB, 128))
			}
			problem.Services = append(problem.Services, core.OptService{ID: sla.ID(fmt.Sprintf("s%03d", j)), Spec: spec, Rates: pricing.DefaultRates})
			_, err := alloc.AllocateGuaranteed(fmt.Sprintf("u%03d", j), spec.Best(), spec.Floor())
			fail(err)
		}
		v[fmt.Sprintf("core.optimizer.greedy%d_us", k)] = medianOp(30, 1, func() { _, err := core.Greedy(problem); fail(err) }) / 1e3
		v[fmt.Sprintf("core.allocator.grant_release_ns_%d", k)] = medianOp(100, 16, func() {
			_, err := alloc.AllocateGuaranteed("probe", floor, floor)
			fail(err)
			fail(alloc.ReleaseGuaranteed("probe"))
		})
	}

	// Pool and GARA with standing reservations as the workloads leave
	// them: each starts a second after the last and holds for 1000 h, so
	// every one puts an interval boundary inside the next request's window
	// — the pool's cost depends on those, not only on how many stand.
	const hold = 1000 * time.Hour
	for _, k := range []int{8, 64, 512} {
		pool := resource.NewPool("probe", resource.Capacity{CPU: 1 << 12, MemoryMB: 1 << 22, DiskGB: 1 << 16})
		g := gara.NewSystem()
		g.RegisterManager(gara.NewComputeManager(pool))
		for j := 0; j < k; j++ {
			start := now.Add(time.Duration(j) * time.Second)
			_, err := g.Create(in.rsl[j%len(in.rsl)], start, start.Add(hold), fmt.Sprintf("standing-%d", j))
			fail(err)
		}
		start := now.Add(time.Duration(k) * time.Second)
		samples := 50
		if k > 64 { // one reserve takes milliseconds at this size
			samples = 10
		}
		v[fmt.Sprintf("resource.pool.reserve_release_us_%d", k)] = medianOp(samples, 2, func() {
			r, err := pool.Reserve(floor, start, start.Add(hold), "probe")
			fail(err)
			if err == nil {
				fail(pool.Release(r.ID))
			}
		}) / 1e3
		if k <= 64 {
			v[fmt.Sprintf("gara.create_cancel_us_%d", k)] = medianOp(50, 2, func() {
				h, err := g.Create(next(), start, start.Add(hold), "probe")
				fail(err)
				if err == nil {
					fail(g.Cancel(h))
				}
			}) / 1e3
		}
	}

	walProbes(in.doc, workdir, v, fail)
	return v, firstErr
}

// walProbes times the WAL's write and read paths in a directory beside
// the workload's, and the raw write+fsync floor of that filesystem.
func walProbes(doc *sla.Document, workdir string, v map[string]float64, fail func(error)) {
	dir, err := os.MkdirTemp(workdir, "walprobe-")
	if err != nil {
		fail(err)
		return
	}
	defer os.RemoveAll(dir)

	f, err := os.Create(dir + "/floor")
	if err != nil {
		fail(err)
		return
	}
	buf := make([]byte, 256)
	v["bench.fsync_floor_us"] = medianOp(100, 1, func() {
		_, err := f.Write(buf)
		fail(err)
		fail(f.Sync())
	}) / 1e3
	fail(f.Close())
	fail(os.Remove(dir + "/floor"))

	// A snapshot cadence the probe never reaches: it lands its own.
	opts := wal.Options{Dir: dir, SnapshotEvery: 1 << 30}
	log, _, err := wal.Open(opts)
	if err != nil {
		fail(err)
		return
	}
	rec := wal.Record{At: epoch, Op: "accept", Session: &wal.SessionRecord{Doc: doc, Handle: "gara-1", Original: doc.Allocated}}
	singles := timeOps(200, 1, func() { _, err := log.Append(rec); fail(err) })
	v["wal.append_us"] = quantileSorted(singles, 0.50) / 1e3
	v["wal.append_p99_us"] = quantileSorted(singles, 0.99) / 1e3
	batch := make([]wal.Record, 8)
	for i := range batch {
		batch[i] = rec
	}
	v["wal.append_batch8_us"] = medianOp(50, 1, func() { _, err := log.AppendBatch(batch); fail(err) }) / 1e3

	snap := &wal.Snapshot{At: epoch, Shards: []wal.ShardSnap{{}}}
	for i := 0; i < 16; i++ {
		snap.Shards[0].Sessions = append(snap.Shards[0].Sessions, *rec.Session)
	}
	v["wal.snapshot_us"] = medianOp(10, 1, func() {
		snap.BaseSeq = log.LastSeq()
		fail(log.WriteSnapshot(snap))
		_, err := log.Append(rec) // a suffix for the replay probe to read
		fail(err)
	}) / 1e3
	for i := 0; i < 64; i++ {
		_, err := log.Append(rec)
		fail(err)
	}
	log.Seal()
	v["wal.open_replay_ms"] = medianOp(5, 1, func() {
		l, load, err := wal.Open(opts)
		fail(err)
		if err == nil {
			if load.Snapshot == nil || len(load.Records) == 0 {
				fail(fmt.Errorf("wal probe: replay loaded snapshot=%v records=%d", load.Snapshot != nil, len(load.Records)))
			}
			l.Seal()
		}
	}) / 1e6
}
