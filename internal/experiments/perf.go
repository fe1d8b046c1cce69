package experiments

import (
	"hdpat/internal/config"
	"hdpat/internal/stats"
	"hdpat/internal/wafer"
	"hdpat/internal/xlat"
)

// Fig14 compares HDPAT and the state-of-the-art comparators against the
// baseline across benchmarks.
func Fig14(s *Session) (Table, error) {
	schemesList := []string{"transfw", "valkyrie", "barre", "hdpat"}
	t := Table{ID: "fig14", Title: "Normalized performance vs baseline",
		Header: append([]string{"Benchmark"}, schemesList...)}
	if err := s.warmPairs(schemesList, s.benchmarks()); err != nil {
		return t, err
	}
	sums := map[string][]float64{}
	for _, bench := range s.benchmarks() {
		row := []any{bench}
		for _, scheme := range schemesList {
			base, res, err := s.pair(scheme, bench)
			if err != nil {
				return t, err
			}
			sp := res.Speedup(base)
			sums[scheme] = append(sums[scheme], sp)
			row = append(row, sp)
		}
		t.Addf(row...)
	}
	meanRow := []any{"MEAN"}
	gmRow := []any{"GEOMEAN"}
	for _, scheme := range schemesList {
		meanRow = append(meanRow, stats.Mean(sums[scheme]))
		gmRow = append(gmRow, stats.GeoMean(sums[scheme]))
	}
	t.Addf(meanRow...)
	t.Addf(gmRow...)
	t.Note("paper: HDPAT averages 1.57x; Trans-FW/Valkyrie/Barre trail (HDPAT is 1.35x over the best of them)")
	return t, nil
}

// Fig15 walks the ablation ladder: route-based, concentric, distributed,
// cluster+rotation, +redirection, +prefetch, full HDPAT.
func Fig15(s *Session) (Table, error) {
	ladder := []string{"route", "concentric", "distributed", "cluster", "redirect", "prefetch", "hdpat"}
	t := Table{ID: "fig15", Title: "Ablation of HDPAT techniques (speedup vs baseline)",
		Header: append([]string{"Benchmark"}, ladder...)}
	if err := s.warmPairs(ladder, s.benchmarks()); err != nil {
		return t, err
	}
	sums := map[string][]float64{}
	for _, bench := range s.benchmarks() {
		row := []any{bench}
		for _, scheme := range ladder {
			base, res, err := s.pair(scheme, bench)
			if err != nil {
				return t, err
			}
			sp := res.Speedup(base)
			sums[scheme] = append(sums[scheme], sp)
			row = append(row, sp)
		}
		t.Addf(row...)
	}
	meanRow := []any{"MEAN"}
	for _, scheme := range ladder {
		meanRow = append(meanRow, stats.Mean(sums[scheme]))
	}
	t.Addf(meanRow...)
	t.Note("paper means: distributed 1.08x, cluster 1.13x, redirect 1.18x, prefetch 1.17x, all combined 1.57x;")
	t.Note("route-based and concentric show no noticeable improvement")
	return t, nil
}

// Fig16 breaks down how HDPAT handles remote translations: peer caching,
// redirection, proactive delivery, or an IOMMU walk.
func Fig16(s *Session) (Table, error) {
	t := Table{ID: "fig16", Title: "Breakdown of translation handling under HDPAT (%)",
		Header: []string{"Benchmark", "Peer", "Redirect", "Proactive", "IOMMU", "Offloaded"}}
	if err := s.warmPairs([]string{"hdpat"}, s.benchmarks()); err != nil {
		return t, err
	}
	var offloads []float64
	for _, bench := range s.benchmarks() {
		_, res, err := s.pair("hdpat", bench)
		if err != nil {
			return t, err
		}
		off := offloadPct(res)
		offloads = append(offloads, off)
		t.Addf(bench,
			sourcePct(res, xlat.SourcePeer),
			sourcePct(res, xlat.SourceRedirect),
			sourcePct(res, xlat.SourceProactive),
			sourcePct(res, xlat.SourceIOMMU),
			off)
	}
	t.Addf("MEAN", "", "", "", "", stats.Mean(offloads))
	t.Note("paper: 42.1%% of translations offloaded from the IOMMU on average")
	return t, nil
}

// Fig17 reports remote translation round-trip time under HDPAT normalized
// to baseline, plus the NoC traffic overhead.
func Fig17(s *Session) (Table, error) {
	t := Table{ID: "fig17", Title: "Remote translation round-trip time (normalized) and NoC traffic",
		Header: []string{"Benchmark", "Baseline cyc", "HDPAT cyc", "Normalized", "Traffic overhead %"}}
	if err := s.warmPairs([]string{"hdpat"}, s.benchmarks()); err != nil {
		return t, err
	}
	var norm []float64
	var traffic []float64
	for _, bench := range s.benchmarks() {
		base, res, err := s.pair("hdpat", bench)
		if err != nil {
			return t, err
		}
		bl, hl := base.AvgRemoteLatency(), res.AvgRemoteLatency()
		n := 0.0
		if bl > 0 {
			n = hl / bl
			norm = append(norm, n)
		}
		tr := 0.0
		if base.NoC.ByteHops > 0 {
			tr = 100 * (float64(res.NoC.ByteHops) - float64(base.NoC.ByteHops)) / float64(base.NoC.ByteHops)
			traffic = append(traffic, tr)
		}
		t.Addf(bench, bl, hl, n, tr)
	}
	t.Addf("MEAN", "", "", stats.Mean(norm), stats.Mean(traffic))
	t.Note("paper: 41%% average round-trip reduction; +0.82%% NoC traffic")
	return t, nil
}

// Fig18 sweeps proactive delivery granularity (1, 4, 8 PTEs per walk).
func Fig18(s *Session) (Table, error) {
	degrees := []int{1, 4, 8}
	t := Table{ID: "fig18", Title: "Proactive delivery granularity (speedup vs baseline)",
		Header: []string{"Benchmark", "1 PTE", "4 PTEs", "8 PTEs"}}
	var jobs []simJob
	for _, bench := range s.benchmarks() {
		baseCfg, _ := wafer.ConfigFor("baseline", config.Default())
		jobs = append(jobs, simJob{cfg: baseCfg, scheme: "baseline", bench: bench})
		for _, d := range degrees {
			cfg, _ := wafer.ConfigFor("hdpat", config.Default())
			cfg.IOMMU.PrefetchDegree = d
			jobs = append(jobs, simJob{cfg: cfg, scheme: "hdpat", bench: bench})
		}
	}
	if err := s.warm(jobs); err != nil {
		return t, err
	}
	sums := map[int][]float64{}
	for _, bench := range s.benchmarks() {
		row := []any{bench}
		baseCfg, _ := wafer.ConfigFor("baseline", config.Default())
		base, err := s.run(baseCfg, "baseline", bench, wafer.Options{})
		if err != nil {
			return t, err
		}
		for _, d := range degrees {
			cfg, _ := wafer.ConfigFor("hdpat", config.Default())
			cfg.IOMMU.PrefetchDegree = d
			res, err := s.run(cfg, "hdpat", bench, wafer.Options{})
			if err != nil {
				return t, err
			}
			sp := res.Speedup(base)
			sums[d] = append(sums[d], sp)
			row = append(row, sp)
		}
		t.Addf(row...)
	}
	t.Addf("MEAN", stats.Mean(sums[1]), stats.Mean(sums[4]), stats.Mean(sums[8]))
	t.Note("paper means: 1.40x / 1.57x / 1.59x — saturating at 4-PTE delivery")
	return t, nil
}

// Fig19 compares the redirection table against an area-equivalent IOMMU TLB.
func Fig19(s *Session) (Table, error) {
	t := Table{ID: "fig19", Title: "Redirection table vs area-equivalent IOMMU TLB (speedup vs baseline)",
		Header: []string{"Benchmark", "RT (1024 ent)", "TLB (512 ent)", "RT/TLB"}}
	if err := s.warmPairs([]string{"hdpat", "iommutlb"}, s.benchmarks()); err != nil {
		return t, err
	}
	var ratios []float64
	for _, bench := range s.benchmarks() {
		base, rt, err := s.pair("hdpat", bench)
		if err != nil {
			return t, err
		}
		_, tlbRes, err := s.pair("iommutlb", bench)
		if err != nil {
			return t, err
		}
		rts, ts := rt.Speedup(base), tlbRes.Speedup(base)
		ratio := 0.0
		if ts > 0 {
			ratio = rts / ts
			ratios = append(ratios, ratio)
		}
		t.Addf(bench, rts, ts, ratio)
	}
	t.Addf("MEAN", "", "", stats.Mean(ratios))
	t.Note("paper: redirection table delivers 1.27x over the TLB variant")
	return t, nil
}
