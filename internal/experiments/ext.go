package experiments

import (
	"fmt"

	"hdpat/internal/config"
	"hdpat/internal/stats"
	"hdpat/internal/wafer"
)

// Extension experiments: studies beyond the paper's figures, covering the
// design choices DESIGN.md documents as interpretation points, plus the
// owner-forwarding what-if the paper's related-work discussion gestures at.

// ExtProbePolicy compares HDPAT's concurrent per-layer probes against
// strict inward sequential forwarding (the literal reading of Fig 9) and
// against different layer counts C — the §IV-C "tunable by drivers or
// firmware" knob.
func ExtProbePolicy(s *Session) (Table, error) {
	t := Table{ID: "ext-probe", Title: "Probe dispatch policy and layer count (speedup vs baseline)",
		Header: []string{"Benchmark", "C=2 concurrent", "C=2 sequential", "C=1", "C=3"}}
	type variant struct {
		name       string
		layers     int
		sequential bool
	}
	variants := []variant{
		{"c2-conc", 2, false},
		{"c2-seq", 2, true},
		{"c1", 1, false},
		{"c3", 3, false},
	}
	var jobs []simJob
	for _, bench := range s.benchmarks() {
		baseCfg, _ := wafer.ConfigFor("baseline", config.Default())
		jobs = append(jobs, simJob{cfg: baseCfg, scheme: "baseline", bench: bench})
		for _, v := range variants {
			cfg, _ := wafer.ConfigFor("hdpat", config.Default())
			cfg.HDPAT.Layers = v.layers
			cfg.HDPAT.SequentialLayers = v.sequential
			cfg.Name = "probe-" + v.name
			jobs = append(jobs, simJob{cfg: cfg, scheme: "hdpat", bench: bench})
		}
	}
	if err := s.warm(jobs); err != nil {
		return t, err
	}
	sums := make([][]float64, len(variants))
	for _, bench := range s.benchmarks() {
		baseCfg, _ := wafer.ConfigFor("baseline", config.Default())
		base, err := s.run(baseCfg, "baseline", bench, wafer.Options{})
		if err != nil {
			return t, err
		}
		row := []any{bench}
		for i, v := range variants {
			cfg, _ := wafer.ConfigFor("hdpat", config.Default())
			cfg.HDPAT.Layers = v.layers
			cfg.HDPAT.SequentialLayers = v.sequential
			cfg.Name = "probe-" + v.name
			res, err := s.run(cfg, "hdpat", bench, wafer.Options{})
			if err != nil {
				return t, err
			}
			sp := res.Speedup(base)
			sums[i] = append(sums[i], sp)
			row = append(row, sp)
		}
		t.Addf(row...)
	}
	meanRow := []any{"MEAN"}
	for i := range variants {
		meanRow = append(meanRow, stats.Mean(sums[i]))
	}
	t.Addf(meanRow...)
	t.Note("concurrent probes trade wasted walker work for latency; sequential saves traffic")
	return t, nil
}

// ExtPushThreshold sweeps the selective-caching threshold (§IV-F tracks
// access counts in unused PTE bits; the shipping default pushes at 2).
func ExtPushThreshold(s *Session) (Table, error) {
	thresholds := []uint32{1, 2, 4, 8}
	t := Table{ID: "ext-threshold", Title: "Selective push threshold (speedup vs baseline)",
		Header: []string{"Benchmark", "t=1", "t=2", "t=4", "t=8"}}
	var jobs []simJob
	for _, bench := range s.benchmarks() {
		baseCfg, _ := wafer.ConfigFor("baseline", config.Default())
		jobs = append(jobs, simJob{cfg: baseCfg, scheme: "baseline", bench: bench})
		for _, th := range thresholds {
			cfg, _ := wafer.ConfigFor("hdpat", config.Default())
			cfg.IOMMU.PushThreshold = th
			cfg.Name = fmt.Sprintf("push-t%d", th)
			jobs = append(jobs, simJob{cfg: cfg, scheme: "hdpat", bench: bench})
		}
	}
	if err := s.warm(jobs); err != nil {
		return t, err
	}
	sums := make([][]float64, len(thresholds))
	for _, bench := range s.benchmarks() {
		baseCfg, _ := wafer.ConfigFor("baseline", config.Default())
		base, err := s.run(baseCfg, "baseline", bench, wafer.Options{})
		if err != nil {
			return t, err
		}
		row := []any{bench}
		for i, th := range thresholds {
			cfg, _ := wafer.ConfigFor("hdpat", config.Default())
			cfg.IOMMU.PushThreshold = th
			cfg.Name = fmt.Sprintf("push-t%d", th)
			res, err := s.run(cfg, "hdpat", bench, wafer.Options{})
			if err != nil {
				return t, err
			}
			sp := res.Speedup(base)
			sums[i] = append(sums[i], sp)
			row = append(row, sp)
		}
		t.Addf(row...)
	}
	meanRow := []any{"MEAN"}
	for i := range thresholds {
		meanRow = append(meanRow, stats.Mean(sums[i]))
	}
	t.Addf(meanRow...)
	t.Note("t=1 pushes every walk (more traffic, earlier coverage); high t starves the aux caches")
	return t, nil
}

// ExtOwnerForward evaluates the owner-forwarding what-if (schemes.OwnerFW):
// a fully distributed walk fabric using every GPM's GMMU walkers. It bounds
// what HDPAT leaves on the table versus a design that abandons the
// centralized IOMMU entirely (at the cost of giving up centralized
// management, the property §II-A assumes).
func ExtOwnerForward(s *Session) (Table, error) {
	t := Table{ID: "ext-ownerfw", Title: "Owner-forwarded walks vs HDPAT (speedup vs baseline)",
		Header: []string{"Benchmark", "HDPAT", "OwnerFW"}}
	if err := s.warmPairs([]string{"hdpat", "ownerfw"}, s.benchmarks()); err != nil {
		return t, err
	}
	var hd, of []float64
	for _, bench := range s.benchmarks() {
		base, h, err := s.pair("hdpat", bench)
		if err != nil {
			return t, err
		}
		_, o, err := s.pair("ownerfw", bench)
		if err != nil {
			return t, err
		}
		hs, os := h.Speedup(base), o.Speedup(base)
		hd = append(hd, hs)
		of = append(of, os)
		t.Addf(bench, hs, os)
	}
	t.Addf("MEAN", stats.Mean(hd), stats.Mean(of))
	t.Note("owner forwarding exploits 48x8 distributed walkers but loses on hot partitions and")
	t.Note("gives up the centralized management the zero-copy model assumes")
	return t, nil
}
