package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"hdpat"
	"hdpat/internal/attr"
	"hdpat/internal/geom"
	"hdpat/internal/iommu"
	"hdpat/internal/noc"
	"hdpat/internal/sim"
	"hdpat/internal/vm"
	"hdpat/internal/wafer"
	"hdpat/internal/workload"
	"hdpat/internal/xlat"
)

// arrival is one translation request as it reached the IOMMU.
type arrival struct {
	at        sim.VTime
	requester int
	pid       vm.PID
	vpn       vm.VPN
}

// tracedRun is one run of the traced pass and what was captured from it.
type tracedRun struct {
	op       simOp
	scheme   string
	res      wafer.Result
	arrivals []arrival
}

// layerPass is the traced run of an in-process pass: it times the pass
// untraced, then traced, then measures each layer from outside, recording
// a span around every call it makes into a layer.
type layerPass struct {
	pass      []simOp
	rec       *recorder
	runs      []tracedRun
	untraced  time.Duration // wall of the untraced pass
	tracedAt  time.Duration // wall of the traced pass
	failed    int
	attempted int
	// cycles and speedups of the untraced [0] and traced [1] pass.
	cycles   [2]uint64
	speedups [2][]float64
}

// run executes the untraced and the traced pass; every op of the traced
// pass must reproduce the untraced op's digest and pass the invariant
// checker.
func (lp *layerPass) run(ctx context.Context) {
	digests := make([]string, len(lp.pass))
	for i, op := range lp.pass {
		t0 := time.Now()
		c, err := compare(ctx, op, observers{})
		lp.untraced += time.Since(t0)
		if err == nil {
			digests[i], err = opDigest(c.Base, c.Res)
			lp.tally(0, c)
		}
		lp.count(err)
	}
	for i, op := range lp.pass {
		t0 := time.Now()
		opSpan := lp.rec.open("op", 0, 0)
		var c comparison
		var err error
		for k, name := range []string{"baseline", scheme} {
			tr := tracedRun{op: op, scheme: name}
			obs := traced()
			obs.hook = func(string) iommu.RequestHook {
				return iommu.RequestHookFunc(func(now sim.VTime, req *xlat.Request) {
					tr.arrivals = append(tr.arrivals, arrival{now, req.Requester, req.PID, req.VPN})
				})
			}
			lp.rec.timed("wafer.run", opSpan, 0, func(int) {
				tr.res, err = runWafer(ctx, op, name, obs)
			})
			if err != nil {
				break
			}
			lp.runs = append(lp.runs, tr)
			if k == 0 {
				c.Base = tr.res
			} else {
				c.Res = tr.res
			}
		}
		lp.rec.close(opSpan)
		lp.tracedAt += time.Since(t0)
		var d string
		if err == nil {
			d, err = opDigest(c.Base, c.Res)
			lp.tally(1, c)
		}
		if err == nil && d != digests[i] {
			err = fmt.Errorf("%s: traced digest %.12s != untraced %.12s", op.Label, d, digests[i])
		}
		lp.count(err)
	}
}

func (lp *layerPass) tally(pass int, c comparison) {
	lp.cycles[pass] += uint64(c.Base.Cycles) + uint64(c.Res.Cycles)
	lp.speedups[pass] = append(lp.speedups[pass], c.Res.Speedup(c.Base))
}

// sameResults notes sim_cycles and speedup_geomean of the untraced and
// the traced pass, and fails the run unless they are identical.
func (lp *layerPass) sameResults(rep *report) {
	g0, g1 := geomean(lp.speedups[0]), geomean(lp.speedups[1])
	rep.notef("sim_cycles %d untraced, %d traced; speedup_geomean %v untraced, %v traced",
		lp.cycles[0], lp.cycles[1], g0, g1)
	if lp.cycles[0] != lp.cycles[1] || g0 != g1 {
		lp.broken(errors.New("traced pass changed sim_cycles or speedup_geomean"))
	}
}

// count records one op of the traced run.
func (lp *layerPass) count(err error) {
	lp.attempted++
	if err != nil {
		lp.broken(err)
	}
}

// broken fails an op already counted, for a check that spans ops.
func (lp *layerPass) broken(err error) {
	lp.failed = min(lp.failed+1, lp.attempted)
	fmt.Fprintf(os.Stderr, "hdpatbench: traced run: %v\n", err)
}

// placed builds the scaled system, page placement and region map a run
// of op sees.
func placed(op simOp) (hdpat.Config, map[string]vm.Region, []workload.RegionSpec, *vm.Placement) {
	cfg := op.Cfg.ApplyScale()
	n := geom.NewMesh(cfg.MeshW, cfg.MeshH).NumGPMs()
	pl := vm.NewPlacement(n, cfg.PageSize)
	specs := op.Bench.Regions(cfg.WorkloadScale, n, cfg.PageSize)
	regions := map[string]vm.Region{}
	for _, rs := range specs {
		regions[rs.Name] = pl.Alloc(rs.Name, rs.Pages, 0)
	}
	return cfg, regions, specs, pl
}

// genTraces times the workload layer for one run of op, in a
// workload.gen span: Regions plus Trace for every GPM x CU, as
// wafer.Run calls them. It returns the generation time and the number of
// trace ops.
func genTraces(op simOp, rec *recorder) (time.Duration, uint64) {
	cfg, regions, _, _ := placed(op)
	n := geom.NewMesh(cfg.MeshW, cfg.MeshH).NumGPMs()
	t0 := time.Now()
	op.Bench.Regions(cfg.WorkloadScale, n, cfg.PageSize)
	var ops uint64
	for g := 0; g < n; g++ {
		for cu := 0; cu < cfg.GPM.NumCUs; cu++ {
			ops += uint64(len(op.Bench.Trace(workload.Context{
				Regions: regions, PageSize: cfg.PageSize, GPM: g, NumGPMs: n,
				CU: cu, NumCUs: cfg.GPM.NumCUs, OpsBudget: op.Ops, Seed: op.Seed,
			})))
		}
	}
	t1 := time.Now()
	rec.add("workload.gen", 0, 0, t0, t1)
	return t1.Sub(t0), ops
}

// fixedCost times a run of the same geometry, scheme, routing and regions
// as op with an empty trace: the wafer layer's build-and-settle cost that
// every run pays whatever its workload. It returns the median of three
// runs' wall time and allocation.
func fixedCost(ctx context.Context, op simOp, name string) (time.Duration, uint64, error) {
	_, _, specs, _ := placed(op)
	empty := op
	empty.Bench = workload.Custom(op.Bench.Abbr+"-empty", "empty trace", op.Bench.Gap, specs,
		func(workload.Context) []vm.VAddr { return nil })
	var walls, allocs []float64
	for i := 0; i < 3; i++ {
		a0 := totalAlloc()
		t0 := time.Now()
		if _, err := runWafer(ctx, empty, name, observers{}); err != nil {
			return 0, 0, err
		}
		walls = append(walls, float64(time.Since(t0)))
		allocs = append(allocs, float64(totalAlloc()-a0))
	}
	return time.Duration(median(walls)), uint64(median(allocs)), nil
}

// tick is the sim microbenchmark's event: it re-posts itself with a pseudo-random
// delay drawn from the simulator's typical latencies until the budget
// runs out, so the queue stays at its initial depth.
type tick struct {
	eng  *sim.Engine
	left *int
	rng  uint64
}

var tickDelays = [8]sim.VTime{1, 4, 8, 16, 32, 32, 64, 100}

func (t *tick) Event(sim.EventArg) {
	if *t.left <= 0 {
		return
	}
	*t.left--
	t.rng = t.rng*6364136223846793005 + 1442695040888963407
	t.eng.Post(tickDelays[t.rng>>61], t, sim.EventArg{})
}

// simMicro measures the event kernel alone: events held at depth in
// the queue, n dispatches. It returns host ns per dispatched event.
func simMicro(depth, n int) float64 {
	eng := sim.NewEngine()
	left := n
	for i := 0; i < max(depth, 1); i++ {
		t := &tick{eng: eng, left: &left, rng: uint64(i)*0x9e3779b97f4a7c15 + 1}
		eng.Post(sim.VTime(i%100), t, sim.EventArg{})
	}
	t0 := time.Now()
	eng.Run()
	return ratio(float64(time.Since(t0).Nanoseconds()), float64(eng.Processed))
}

// sink counts NoC deliveries.
type sink struct{ n int }

func (s *sink) Event(sim.EventArg) { s.n++ }

// nocMicro measures the NoC alone: msgs messages of size bytes between
// random tile pairs about meanHops apart, injected evenly over cycles, on
// a w x h mesh under routing. It returns host ns per hop travelled, each
// message's injection and delivery events included.
func nocMicro(w, h, msgs, size int, meanHops float64, cycles sim.VTime, routing string) (float64, error) {
	eng := sim.NewEngine()
	cfg := noc.DefaultConfig()
	cfg.Routing = routing
	mesh := geom.NewMesh(w, h)
	network := noc.New(eng, mesh, cfg)
	rng := rand.New(rand.NewSource(1))
	want := int(meanHops + 0.5)
	var s sink
	for k := 0; k < msgs; k++ {
		var src, dst geom.Coord
		for tries := 0; ; tries++ {
			src, dst = mesh.CoordOf(rng.Intn(mesh.NumTiles())), mesh.CoordOf(rng.Intn(mesh.NumTiles()))
			if d := src.Manhattan(dst); d > 0 && (d-want <= 1 && want-d <= 1 || tries > 100) {
				break
			}
		}
		at := sim.VTime(uint64(k) * uint64(cycles) / uint64(max(msgs, 1)))
		eng.At(at, func() { network.SendH(src, dst, size, &s, sim.EventArg{}) })
	}
	t0 := time.Now()
	eng.Run()
	wall := time.Since(t0)
	if s.n != msgs {
		return 0, fmt.Errorf("noc microbenchmark: %d of %d messages delivered", s.n, msgs)
	}
	return ratio(float64(wall.Nanoseconds()), float64(network.Stats.HopsTotal)), nil
}

// iommuReplay feeds a captured arrival stream into a standalone IOMMU
// built like the run's (same scheme configuration, mesh and page table,
// no peer GPMs to push to or redirect through) and returns the host time
// it took and the requests completed.
func iommuReplay(tr tracedRun) (time.Duration, int, error) {
	_, _, _, pl := placed(tr.op)
	cfg, err := wafer.ConfigFor(tr.scheme, tr.op.Cfg)
	if err != nil {
		return 0, 0, err
	}
	cfg = cfg.ApplyScale() // after the scheme's settings, as wafer.Run does
	if tr.op.Routing != "" {
		cfg.NoC.Routing = tr.op.Routing
	}
	eng := sim.NewEngine()
	mesh := geom.NewMesh(cfg.MeshW, cfg.MeshH)
	io := iommu.New(eng, cfg.IOMMU, mesh.CPU, noc.New(eng, mesh, cfg.NoC), pl.Global())
	gpms := mesh.GPMs()
	io.GPMCoord = func(id int) geom.Coord { return gpms[id] }
	done := 0
	for k, a := range tr.arrivals {
		req := xlat.NewRequest(uint64(k+1), a.pid, a.vpn, a.requester, a.at, func(xlat.Result) { done++ })
		eng.At(a.at, func() { io.Submit(req, false) })
	}
	t0 := time.Now()
	eng.Run()
	wall := time.Since(t0)
	if done != len(tr.arrivals) {
		return wall, done, fmt.Errorf("iommu replay: %d of %d requests completed", done, len(tr.arrivals))
	}
	return wall, done, nil
}

// mergeDist adds d into acc.
func mergeDist(acc *attr.Dist, d *attr.Dist) {
	if d == nil || d.Count == 0 {
		return
	}
	if acc.Count == 0 || d.Min < acc.Min {
		acc.Min = d.Min
	}
	acc.Max = max(acc.Max, d.Max)
	acc.Count += d.Count
	acc.Sum += d.Sum
	for len(acc.Buckets) < len(d.Buckets) {
		acc.Buckets = append(acc.Buckets, 0)
	}
	for i, n := range d.Buckets {
		acc.Buckets[i] += n
	}
}

// layerMetrics measures every layer of the traced pass and adds the
// per-layer metrics to rep (all but service.*, which the caller adds).
func (lp *layerPass) layerMetrics(ctx context.Context, rep *report) error {
	rec := lp.rec
	var events, totalOps, remote, stall, probes, probeHits uint64
	var heapPeak int64
	var offloaded, bySource, latSum uint64
	var msgs, hops, byteHops, deflections, cycles uint64
	counters := map[string]uint64{}
	perScheme := map[string]*struct {
		requests, walks, redirects, revisits, prefetches uint64
		peak                                             int
	}{"baseline": {}, scheme: {}}
	stages := map[string]*attr.Dist{}
	for _, st := range attr.StageOrder {
		stages[st] = &attr.Dist{}
	}
	for _, tr := range lp.runs {
		r := tr.res
		events += r.Events
		totalOps += r.TotalOps
		remote += r.RemoteRequests()
		cycles += uint64(r.Cycles)
		for _, g := range r.GPMStats {
			stall += g.CUStallCycles
			probes += g.ProbesServed
			probeHits += g.ProbeHits
			latSum += g.RemoteLatencySum
		}
		for s, n := range r.RemoteBySource() {
			bySource += n
			if xlat.Source(s).Offloaded() {
				offloaded += n
			}
		}
		msgs += r.NoC.Messages
		hops += r.NoC.HopsTotal
		byteHops += r.NoC.ByteHops
		deflections += r.NoC.Deflections
		if r.Metrics != nil {
			heapPeak = max(heapPeak, r.Metrics.Gauge("sim.heap_peak"))
			for name, v := range r.Metrics.Counters {
				counters[name] += v
			}
		}
		ps := perScheme[tr.scheme]
		ps.requests += r.IOMMU.Requests
		ps.walks += r.IOMMU.Walks
		ps.redirects += r.IOMMU.RTRedirects
		ps.revisits += r.IOMMU.Revisits
		ps.prefetches += r.IOMMU.Prefetches
		ps.peak = max(ps.peak, r.IOMMU.PeakQueue)
		if tr.scheme == scheme && r.Breakdown != nil {
			for _, st := range attr.StageOrder {
				mergeDist(stages[st], r.Breakdown.Stages[st])
			}
		}
	}

	// sim
	rep.add("sim.events", float64(events), "count")
	rep.add("sim.heap_peak", float64(heapPeak), "events")
	var nsPerEvent float64
	rec.timed("micro.sim", 0, 0, func(int) { nsPerEvent = simMicro(int(heapPeak), 2_000_000) })
	rep.add("sim.ns_per_event", nsPerEvent, "ns").Note = fmt.Sprintf("kernel alone at depth %d, 2M events", heapPeak)

	// workload
	var gen time.Duration
	var traceOps uint64
	for _, tr := range lp.runs {
		d, n := genTraces(tr.op, rec)
		gen += d
		traceOps += n
		if n != tr.res.TotalOps {
			lp.broken(fmt.Errorf("%s/%s: regenerated %d trace ops, run loaded %d", tr.op.Label, tr.scheme, n, tr.res.TotalOps))
		}
	}
	rep.secs("workload.gen_s", gen).Note = fmt.Sprintf("%d runs", len(lp.runs))
	rep.add("workload.gen_share", ratio(gen.Seconds(), lp.untraced.Seconds()), "ratio").Note = "of the untraced pass"
	rep.add("workload.trace_ops", float64(traceOps), "count")

	// wafer
	var fixed time.Duration
	var fixedAlloc uint64
	for _, tr := range lp.runs {
		var d time.Duration
		var a uint64
		var err error
		rec.timed("wafer.fixed", 0, 0, func(int) { d, a, err = fixedCost(ctx, tr.op, tr.scheme) })
		if err != nil {
			return fmt.Errorf("empty-trace run %s/%s: %w", tr.op.Label, tr.scheme, err)
		}
		fixed += d
		fixedAlloc += a
	}
	n := float64(max(len(lp.runs), 1))
	rep.add("wafer.fixed_s", fixed.Seconds()/n, "s").Note = "mean per run, empty trace"
	rep.add("wafer.fixed_alloc_mb", float64(fixedAlloc)/n/1e6, "MB").Note = "mean per run, empty trace"

	// gpm / tlb
	hitRate := func(level string) float64 {
		h, m := counters["tlb."+level+".hits"], counters["tlb."+level+".misses"]
		return ratio(float64(h), float64(h+m))
	}
	rep.add("gpm.ops", float64(totalOps), "count")
	rep.add("gpm.remote_requests", float64(remote), "count")
	rep.add("gpm.stall_cycles", float64(stall), "cycles")
	rep.add("gpm.probe_hit_rate", ratio(float64(probeHits), float64(probes)), "ratio").Note = fmt.Sprintf("%d probes", probes)
	rep.add("tlb.l1_hit_rate", hitRate("l1"), "ratio")
	rep.add("tlb.l2_hit_rate", hitRate("l2"), "ratio")
	rep.add("tlb.aux_hit_rate", hitRate("aux"), "ratio").Note = fmt.Sprintf("%d lookups",
		counters["tlb.aux.hits"]+counters["tlb.aux.misses"])

	// iommu
	for _, name := range []string{"baseline", scheme} {
		ps := perScheme[name]
		rep.add("iommu.requests."+name, float64(ps.requests), "count")
		rep.add("iommu.walks."+name, float64(ps.walks), "count")
		rep.add("iommu.walk_ratio."+name, ratio(float64(ps.walks), float64(ps.requests)), "ratio")
		rep.add("iommu.redirects."+name, float64(ps.redirects), "count")
		rep.add("iommu.revisits."+name, float64(ps.revisits), "count")
		rep.add("iommu.prefetches."+name, float64(ps.prefetches), "count")
		rep.add("iommu.queue_peak."+name, float64(ps.peak), "requests")
	}
	var replayWall time.Duration
	replayed := 0
	for _, tr := range lp.runs {
		var d time.Duration
		var k int
		var err error
		rec.timed("micro.iommu", 0, 0, func(int) { d, k, err = iommuReplay(tr) })
		if err != nil {
			return fmt.Errorf("%s/%s: %w", tr.op.Label, tr.scheme, err)
		}
		replayWall += d
		replayed += k
	}
	rep.add("iommu.ns_per_request", ratio(float64(replayWall.Nanoseconds()), float64(replayed)), "ns").Note =
		fmt.Sprintf("replay of %d captured arrivals", replayed)

	// xlat / core
	rep.add("xlat.offload_frac", ratio(float64(offloaded), float64(bySource)), "ratio")
	rep.add("xlat.remote_latency_mean", ratio(float64(latSum), float64(remote)), "cycles")

	// noc
	meanHops := ratio(float64(hops), float64(msgs))
	rep.add("noc.messages", float64(msgs), "count")
	rep.add("noc.hops", float64(hops), "count")
	rep.add("noc.mean_hops", meanHops, "hops")
	rep.add("noc.byte_hops", float64(byteHops), "bytes")
	rep.add("noc.deflections", float64(deflections), "count")
	rep.add("noc.deflect_ratio", ratio(float64(deflections), float64(hops)), "ratio")
	const maxMicroMsgs = 200_000
	dm := int(min(msgs, maxMicroMsgs))
	size := int(ratio(float64(byteHops), float64(hops)) + 0.5)
	cfg := lp.pass[0].Cfg
	nsPerHop := map[string]float64{}
	for _, routing := range []string{noc.RoutingXY, noc.RoutingDeflect} {
		var ns float64
		var err error
		rec.timed("micro.noc."+routing, 0, 0, func(int) {
			ns, err = nocMicro(cfg.MeshW, cfg.MeshH, dm, max(size, 1), meanHops, sim.VTime(ratio(float64(cycles), float64(msgs))*float64(dm)), routing)
		})
		if err != nil {
			return err
		}
		nsPerHop[routing] = ns
		rep.add("noc.ns_per_hop."+routing, ns, "ns").Note = fmt.Sprintf("%d msgs of %d B, ~%.1f hops, %dx%d", dm, size, meanHops, cfg.MeshW, cfg.MeshH)
	}

	// attr
	for _, st := range attr.StageOrder {
		d := stages[st]
		rep.add("attr."+st+"_p50", d.Quantile(0.5), "cycles").Note = fmt.Sprintf("%s runs, n=%d", scheme, d.Count)
		rep.add("attr."+st+"_p99", d.Quantile(0.99), "cycles")
	}
	var attrWall time.Duration
	for _, op := range lp.pass {
		t0 := time.Now()
		var err error
		rec.timed("op.attribution", 0, 0, func(int) { _, err = compare(ctx, op, observers{attribution: true}) })
		attrWall += time.Since(t0)
		lp.count(err)
	}
	rep.secs("attr.overhead_s", attrWall-lp.untraced).Note = fmt.Sprintf("pass with attribution %.3fs - without %.3fs",
		attrWall.Seconds(), lp.untraced.Seconds())

	var hopCost float64
	for _, tr := range lp.runs {
		hopCost += float64(tr.res.NoC.HopsTotal) * nsPerHop[routingName(tr.op.Routing)]
	}
	lp.estimates(rep, []estimate{
		{"workload generation (workload.gen_s)", gen},
		{"wafer build and settle (wafer.fixed_s x runs)", fixed},
		{"event kernel (sim.events x sim.ns_per_event)", time.Duration(float64(events) * nsPerEvent)},
		{"NoC hops (noc.hops x noc.ns_per_hop)", time.Duration(hopCost)},
		{"IOMMU job machine (iommu replay)", replayWall},
	})
	return nil
}

// estimate is one layer's share of a pass, costed from its microbenchmark.
type estimate struct {
	what string
	cost time.Duration
}

// estimates adds the layer-cost table: each layer's cost measured from
// outside, as a share of the untraced pass. The microbenchmark costs overlap (a
// NoC hop is also a kernel event), so the shares need not sum to 100%.
func (lp *layerPass) estimates(rep *report, es []estimate) {
	rep.Ledger = append(rep.Ledger, fmt.Sprintf("layer costs, share of the untraced pass (%.3fs; microbenchmark costs overlap):", lp.untraced.Seconds()))
	for _, e := range es {
		rep.Ledger = append(rep.Ledger, fmt.Sprintf("  %-46s %9.4fs %6.1f%%", e.what, e.cost.Seconds(),
			100*ratio(e.cost.Seconds(), lp.untraced.Seconds())))
	}
}

// writeSpans writes the recorder's spans as Chrome trace JSON and adds the
// "where the time goes" table to rep.
func writeSpans(rec *recorder, rep *report, dir string) error {
	spans := rec.snapshot()
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d-spans.json", rep.Workload, rep.Host.Seed))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := writeChrome(f, spans); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	rows := ledger(spans)
	var total time.Duration
	for _, r := range rows {
		total += r.Self
	}
	rep.Ledger = append(rep.Ledger, fmt.Sprintf("where the time goes (self time of the benchmark's spans; %d spans in %s):", len(spans), path),
		fmt.Sprintf("  %-20s %7s %10s %10s %7s", "span", "count", "total_s", "self_s", "share"))
	for _, r := range rows {
		rep.Ledger = append(rep.Ledger, fmt.Sprintf("  %-20s %7d %10.4f %10.4f %6.1f%%",
			r.Name, r.Count, r.Total.Seconds(), r.Self.Seconds(), 100*ratio(float64(r.Self), float64(total))))
	}
	return nil
}
