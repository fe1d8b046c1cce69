package experiments

import (
	"fmt"

	"hdpat/internal/config"
	"hdpat/internal/geom"
	"hdpat/internal/iommu"
	"hdpat/internal/sim"
	"hdpat/internal/stats"
	"hdpat/internal/wafer"
	"hdpat/internal/workload"
	"hdpat/internal/xlat"
)

// Table1 dumps the simulated hardware configuration, mirroring Table I.
func Table1(s *Session) (Table, error) {
	c := config.Default()
	t := Table{ID: "tab1", Title: "Configuration of wafer-scale GPUs", Header: []string{"Module", "Configuration"}}
	g := c.GPM
	t.Add("CU", fmt.Sprintf("1.0 GHz, %d per GPM", g.NumCUs))
	t.Add("L1 Vector Cache", fmt.Sprintf("%d KB, %d-way, %d-MSHR", g.L1VCache.SizeBytes>>10, g.L1VCache.Ways, g.L1VCache.MSHRs))
	t.Add("L2 Cache", fmt.Sprintf("%d MB, %d-way, %d-MSHR", g.L2Cache.SizeBytes>>20, g.L2Cache.Ways, g.L2Cache.MSHRs))
	t.Add("L1 Vector TLB", fmt.Sprintf("%d-set, %d-way, %d-MSHR, %d-cycle latency, LRU", g.L1TLB.Sets, g.L1TLB.Ways, g.L1TLB.MSHRs, g.L1TLB.Latency))
	t.Add("L2 TLB", fmt.Sprintf("%d-set, %d-way, %d-MSHR, %d-cycle latency, LRU", g.L2TLB.Sets, g.L2TLB.Ways, g.L2TLB.MSHRs, g.L2TLB.Latency))
	t.Add("GMMU Cache", fmt.Sprintf("%d-set, %d-way", g.GMMUCache.Sets, g.GMMUCache.Ways))
	t.Add("Aux cache", fmt.Sprintf("%d-set, %d-way (carve-out for peer caching)", g.AuxTLB.Sets, g.AuxTLB.Ways))
	t.Add("GMMU", fmt.Sprintf("%d shared page table walkers, %d cycles per walk", g.GMMUWalkers, g.WalkCycles))
	t.Add("IOMMU", fmt.Sprintf("%d shared page table walkers, %d cycles per walk", c.IOMMU.Walkers, c.IOMMU.WalkCycles))
	t.Add("Redirection Table", fmt.Sprintf("%d entries, LRU", config.HDPATIOMMU().RedirectEntries))
	t.Add("HBM", fmt.Sprintf("%.2f TB/s, %d-cycle access", g.HBM.BytesPerCycle/1000, g.HBM.AccessLatency))
	t.Add("Mesh Network", fmt.Sprintf("%.0f GB/s, %d-cycle latency per link", c.NoC.BytesPerCycle, c.NoC.HopLatency))
	t.Add("Wafer", fmt.Sprintf("%dx%d mesh, CPU at centre, %d GPMs", c.MeshW, c.MeshH, c.MeshW*c.MeshH-1))
	return t, nil
}

// Table2 dumps the benchmark inventory, mirroring Table II, plus the scaled
// sizes actually simulated.
func Table2(s *Session) (Table, error) {
	c := config.Default()
	t := Table{ID: "tab2", Title: "Benchmarks, workgroup counts and memory footprint",
		Header: []string{"Abbr", "Benchmark", "Workgroups", "Memory FP", "Pattern", "Scaled pages"}}
	for _, b := range workload.All() {
		pages := 0
		for _, r := range b.Regions(c.WorkloadScale, c.MeshW*c.MeshH-1, c.PageSize) {
			pages += r.Pages
		}
		t.Addf(b.Abbr, b.Name, b.Workgroups, fmt.Sprintf("%d MB", b.FootprintMB), b.Pattern, pages)
	}
	t.Note("scaled pages = Table II footprint / %d (WorkloadScale), 4 KB pages", c.WorkloadScale)
	return t, nil
}

// Fig2 compares the baseline IOMMU against the two idealisations (1-cycle
// walks; 4096 walkers), reporting per-benchmark speedups.
func Fig2(s *Session) (Table, error) {
	t := Table{ID: "fig2", Title: "Performance headroom of idealised IOMMUs",
		Header: []string{"Benchmark", "Ideal latency (1cyc/16W)", "Ideal parallel (500cyc/4096W)"}}
	var jobs []simJob
	for _, bench := range s.benchmarks() {
		baseCfg, _ := wafer.ConfigFor("baseline", config.Default())
		jobs = append(jobs, simJob{cfg: baseCfg, scheme: "baseline", bench: bench})
		latCfg := baseCfg
		latCfg.IOMMU = config.IdealLatencyIOMMU()
		latCfg.Name = "ideal-latency"
		jobs = append(jobs, simJob{cfg: latCfg, scheme: "baseline", bench: bench})
		parCfg := baseCfg
		parCfg.IOMMU = config.IdealParallelIOMMU()
		parCfg.Name = "ideal-parallel"
		jobs = append(jobs, simJob{cfg: parCfg, scheme: "baseline", bench: bench})
	}
	if err := s.warm(jobs); err != nil {
		return t, err
	}
	var latSp, parSp []float64
	for _, bench := range s.benchmarks() {
		baseCfg, _ := wafer.ConfigFor("baseline", config.Default())
		base, err := s.run(baseCfg, "baseline", bench, wafer.Options{})
		if err != nil {
			return t, err
		}
		latCfg := baseCfg
		latCfg.IOMMU = config.IdealLatencyIOMMU()
		latCfg.Name = "ideal-latency"
		lat, err := s.run(latCfg, "baseline", bench, wafer.Options{})
		if err != nil {
			return t, err
		}
		parCfg := baseCfg
		parCfg.IOMMU = config.IdealParallelIOMMU()
		parCfg.Name = "ideal-parallel"
		par, err := s.run(parCfg, "baseline", bench, wafer.Options{})
		if err != nil {
			return t, err
		}
		ls, ps := lat.Speedup(base), par.Speedup(base)
		latSp = append(latSp, ls)
		parSp = append(parSp, ps)
		t.Addf(bench, ls, ps)
	}
	t.Addf("MEAN", stats.Mean(latSp), stats.Mean(parSp))
	t.Note("paper: 5.45x (ideal latency) and 4.96x (ideal parallelism) mean speedup")
	return t, nil
}

// Fig3 decomposes IOMMU per-request latency for SPMV into pre-queue wait,
// PTW-queue wait and the walk itself.
func Fig3(s *Session) (Table, error) {
	t := Table{ID: "fig3", Title: "Averaged latency breakdown per IOMMU translation request (SPMV)",
		Header: []string{"Component", "Cycles (mean)", "Share %"}}
	cfg, _ := wafer.ConfigFor("baseline", config.Default())
	res, err := s.run(cfg, "baseline", "SPMV", wafer.Options{})
	if err != nil {
		return t, err
	}
	pre, q, w := res.IOMMU.Breakdown.Means()
	pp, qp, wp := res.IOMMU.Breakdown.Percentages()
	t.Addf("pre-queue", pre, pp)
	t.Addf("PTW queueing", q, qp)
	t.Addf("PTW walk", w, wp)
	t.Note("paper: pre-queue delay is the largest component, backlog ~700 requests")
	t.Note("peak combined queue depth observed: %d", res.IOMMU.PeakQueue)
	return t, nil
}

// Fig4 contrasts IOMMU buffer pressure over time between a small MCM system
// and the 48-GPM wafer on SPMV.
func Fig4(s *Session) (Table, error) {
	t := Table{ID: "fig4", Title: "IOMMU buffer pressure over time (SPMV)",
		Header: []string{"System", "Peak depth", "Mean depth", "Sparkline (time ->)"}}
	window := uint64(2000)
	for _, sys := range []struct {
		name string
		cfg  config.System
	}{
		{"MCM (3x3 wafer)", config.MCM4()},
		{"wafer-scale (7x7)", config.Default()},
	} {
		cfg, _ := wafer.ConfigFor("baseline", sys.cfg)
		// The paper sets the IOMMU buffer to 4096 in this experiment "to
		// better demonstrate the load".
		cfg.IOMMU.PWQueueCap = 4096
		res, err := s.run(cfg, "baseline", "SPMV", wafer.Options{QueueWindow: window})
		if err != nil {
			return t, err
		}
		vals := res.QueueSeries.Values()
		t.Addf(sys.name, res.QueueSeries.Peak(), stats.Mean(vals), res.QueueSeries.Sparkline(48))
	}
	t.Note("paper: wafer-scale backlog is persistently high (~700 with a 4096 buffer); MCM stays low")
	return t, nil
}

// Fig5 reports GPM execution time by ring distance from the CPU for two
// benchmarks, showing the O2 centre/periphery imbalance.
func Fig5(s *Session) (Table, error) {
	t := Table{ID: "fig5", Title: "GPM execution time (kcycles) by geometric position",
		Header: []string{"Benchmark", "Ring 1 (centre)", "Ring 2", "Ring 3 (edge)", "Edge/centre"}}
	for _, bench := range []string{"FIR", "SPMV"} {
		cfg, _ := wafer.ConfigFor("baseline", config.Default())
		res, err := s.run(cfg, "baseline", bench, wafer.Options{})
		if err != nil {
			return t, err
		}
		sums := map[int]float64{}
		counts := map[int]int{}
		cpu := geom.XY((cfg.MeshW-1)/2, (cfg.MeshH-1)/2)
		for i, c := range res.GPMCoords {
			r := c.Chebyshev(cpu)
			sums[r] += float64(res.GPMFinish[i])
			counts[r]++
		}
		ringMean := func(r int) float64 {
			if counts[r] == 0 {
				return 0
			}
			return sums[r] / float64(counts[r]) / 1000
		}
		r1, r2, r3 := ringMean(1), ringMean(2), ringMean(3)
		ratio := 0.0
		if r1 > 0 {
			ratio = r3 / r1
		}
		t.Addf(bench, r1, r2, r3, ratio)
	}
	t.Note("paper: centrally located GPMs exhibit lower execution times")
	return t, nil
}

// Fig6 measures how often each virtual page is translated by the IOMMU.
func Fig6(s *Session) (Table, error) {
	t := Table{ID: "fig6", Title: "Distribution of per-page IOMMU translation counts",
		Header: []string{"Benchmark", "Pages", "x1 %", "x2-3 %", "x4-7 %", "x8+ %", "Max"}}
	for _, bench := range s.benchmarks() {
		tracker := stats.NewReuseTracker()
		cfg, _ := wafer.ConfigFor("baseline", config.Default())
		_, err := s.run(cfg, "baseline", bench, wafer.Options{
			Hooks: []iommu.RequestHook{iommu.RequestHookFunc(
				func(now sim.VTime, req *xlat.Request) { tracker.Touch(uint64(req.VPN)) })},
		})
		if err != nil {
			return t, err
		}
		h := tracker.CountHistogram()
		var once, x23, x47, x8 uint64
		for i := 0; i < h.NumBuckets(); i++ {
			c, lo, _ := h.Bucket(i)
			switch {
			case lo <= 1:
				once += c
			case lo <= 3:
				x23 += c
			case lo <= 7:
				x47 += c
			default:
				x8 += c
			}
		}
		tot := float64(h.Total())
		if tot == 0 {
			tot = 1
		}
		t.Addf(bench, h.Total(), 100*float64(once)/tot, 100*float64(x23)/tot,
			100*float64(x47)/tot, 100*float64(x8)/tot, h.Max())
	}
	t.Note("paper O3: AES and RELU are translated once; BT and FWT repeatedly")
	return t, nil
}

// Fig7 reports reuse-distance distributions at the IOMMU for the
// re-translation-heavy benchmarks.
func Fig7(s *Session) (Table, error) {
	t := Table{ID: "fig7", Title: "Distribution of request distance between repeated translations",
		Header: []string{"Benchmark", "Reuses", "<=16 %", "<=256 %", "<=4096 %", "Max"}}
	benches := []string{"BT", "FWT", "MT", "PR"}
	if s.P.Quick {
		benches = []string{"BT", "PR"}
	}
	for _, bench := range benches {
		tracker := stats.NewReuseTracker()
		cfg, _ := wafer.ConfigFor("baseline", config.Default())
		_, err := s.run(cfg, "baseline", bench, wafer.Options{
			Hooks: []iommu.RequestHook{iommu.RequestHookFunc(
				func(now sim.VTime, req *xlat.Request) { tracker.Touch(uint64(req.VPN)) })},
		})
		if err != nil {
			return t, err
		}
		d := &tracker.Distances
		t.Addf(bench, d.Total(), 100*d.FractionAtMost(16), 100*d.FractionAtMost(256),
			100*d.FractionAtMost(4096), d.Max())
	}
	t.Note("paper O3: reuse distances range from small values to hundreds of thousands")
	return t, nil
}

// Fig8 reports the virtual-page distance between consecutive IOMMU requests.
func Fig8(s *Session) (Table, error) {
	t := Table{ID: "fig8", Title: "Virtual-page distance between consecutive translation requests",
		Header: []string{"Benchmark", "Pairs", "within 1 %", "within 2 %", "within 4 %"}}
	for _, bench := range s.benchmarks() {
		var tracker stats.SpatialTracker
		cfg, _ := wafer.ConfigFor("baseline", config.Default())
		_, err := s.run(cfg, "baseline", bench, wafer.Options{
			Hooks: []iommu.RequestHook{iommu.RequestHookFunc(
				func(now sim.VTime, req *xlat.Request) { tracker.Touch(uint64(req.VPN)) })},
		})
		if err != nil {
			return t, err
		}
		t.Addf(bench, tracker.Distances.Total(),
			100*tracker.FractionWithin(1), 100*tracker.FractionWithin(2), 100*tracker.FractionWithin(4))
	}
	t.Note("paper O4: 10-30%% of next requests fall within a few pages, strongest for compute-dense kernels")
	return t, nil
}

// Fig13 runs FIR at three problem sizes and reports the windowed IOMMU
// request-rate series, demonstrating size-invariant behaviour.
func Fig13(s *Session) (Table, error) {
	t := Table{ID: "fig13", Title: "IOMMU-served translation requests over time, FIR problem sizes",
		Header: []string{"Scale (1/N of Table II)", "Requests", "Peak/window", "Mean/window", "Sparkline"}}
	window := uint64(5000)
	for _, scale := range []int{16, 8, 4} {
		cfg, _ := wafer.ConfigFor("baseline", config.Default())
		cfg.WorkloadScale = scale
		cfg.Name = fmt.Sprintf("fir-scale%d", scale)
		served := stats.NewCountSeries(window)
		res, err := s.run(cfg, "baseline", "FIR", wafer.Options{
			Hooks: []iommu.RequestHook{iommu.RequestHookFunc(
				func(now sim.VTime, _ *xlat.Request) { served.Record(uint64(now), 1) })},
		})
		if err != nil {
			return t, err
		}
		t.Addf(fmt.Sprintf("1/%d", scale), res.IOMMU.Requests, served.Peak(),
			stats.Mean(served.Values()), served.Sparkline(48))
	}
	t.Note("paper: similar request-rate shapes across sizes justify scaled-down footprints")
	return t, nil
}
