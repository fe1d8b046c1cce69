package wafer

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"hdpat/internal/config"
	"hdpat/internal/iommu"
	"hdpat/internal/sim"
	"hdpat/internal/workload"
	"hdpat/internal/xlat"
)

// smallConfig shrinks the system so integration tests stay fast: a 5x5
// wafer with 8 CUs per GPM.
func smallConfig() config.System {
	cfg := config.Default()
	cfg.MeshW, cfg.MeshH = 5, 5
	cfg.GPM.NumCUs = 8
	cfg.WorkloadScale = 32
	return cfg
}

func mustRun(t *testing.T, scheme, bench string, budget int) Result {
	t.Helper()
	cfg, err := ConfigFor(scheme, smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	b, err := workload.ByAbbr(bench)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(cfg, Options{Scheme: scheme, Benchmark: b, OpsBudget: budget, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestBaselineRunCompletes(t *testing.T) {
	res := mustRun(t, "baseline", "SPMV", 48)
	if res.Cycles == 0 {
		t.Fatal("zero execution time")
	}
	if res.TotalOps == 0 {
		t.Fatal("no ops generated")
	}
	var issued, completed uint64
	for _, s := range res.GPMStats {
		issued += s.OpsIssued
		completed += s.OpsCompleted
	}
	if issued != res.TotalOps || completed != res.TotalOps {
		t.Fatalf("ops: total=%d issued=%d completed=%d", res.TotalOps, issued, completed)
	}
	if res.IOMMU.Walks == 0 {
		t.Error("SPMV produced no IOMMU walks under baseline")
	}
	if res.NoC.Messages == 0 {
		t.Error("no mesh traffic")
	}
	// Baseline serves all remote translations at the IOMMU.
	if f := res.OffloadFraction(); f != 0 {
		t.Errorf("baseline offload fraction = %f, want 0", f)
	}
}

func TestAllSchemesComplete(t *testing.T) {
	for _, scheme := range SchemeNames() {
		scheme := scheme
		t.Run(scheme, func(t *testing.T) {
			res := mustRun(t, scheme, "PR", 32)
			if res.Cycles == 0 {
				t.Fatalf("%s: zero cycles", scheme)
			}
			var completed uint64
			for _, s := range res.GPMStats {
				completed += s.OpsCompleted
			}
			if completed != res.TotalOps {
				t.Fatalf("%s completed %d of %d ops", scheme, completed, res.TotalOps)
			}
		})
	}
}

func TestHDPATOffloadsTranslations(t *testing.T) {
	res := mustRun(t, "hdpat", "PR", 48)
	if res.RemoteRequests() == 0 {
		t.Skip("PR produced no remote translations at this scale")
	}
	f := res.OffloadFraction()
	if f <= 0.05 {
		t.Errorf("HDPAT offload fraction = %.3f; expected meaningful offload on PR", f)
	}
	by := res.RemoteBySource()
	if by[xlat.SourcePeer]+by[xlat.SourceProactive]+by[xlat.SourceRedirect] == 0 {
		t.Error("no translations served by peer/proactive/redirect")
	}
}

func TestHDPATBeatsBaselineOnReuseHeavyWorkload(t *testing.T) {
	base := mustRun(t, "baseline", "PR", 48)
	hd := mustRun(t, "hdpat", "PR", 48)
	sp := hd.Speedup(base)
	if sp < 1.0 {
		t.Errorf("HDPAT speedup on PR = %.3f, want >= 1.0 (base %d vs hdpat %d cycles)",
			sp, base.Cycles, hd.Cycles)
	}
}

func TestHDPATReducesRemoteLatency(t *testing.T) {
	base := mustRun(t, "baseline", "SPMV", 48)
	hd := mustRun(t, "hdpat", "SPMV", 48)
	if base.AvgRemoteLatency() == 0 {
		t.Skip("no remote translations")
	}
	ratio := hd.AvgRemoteLatency() / base.AvgRemoteLatency()
	if ratio > 1.1 {
		t.Errorf("HDPAT remote latency ratio = %.2f, want <= 1.1", ratio)
	}
}

func TestDeterminism(t *testing.T) {
	a := mustRun(t, "hdpat", "KM", 32)
	b := mustRun(t, "hdpat", "KM", 32)
	if a.Cycles != b.Cycles {
		t.Errorf("nondeterministic: %d vs %d cycles", a.Cycles, b.Cycles)
	}
	if a.IOMMU.Walks != b.IOMMU.Walks {
		t.Errorf("nondeterministic walks: %d vs %d", a.IOMMU.Walks, b.IOMMU.Walks)
	}
	if a.NoC.Messages != b.NoC.Messages {
		t.Errorf("nondeterministic traffic: %d vs %d messages", a.NoC.Messages, b.NoC.Messages)
	}
}

// Every scheme must return the frame the global page table maps, for every
// remote translation it serves — peer caches, redirection, prefetch and
// owner walks included. The invariant checker's xlat.bad-pfn check turns a
// wrong frame into a run error.
func TestTranslationCorrectnessAllSchemes(t *testing.T) {
	for _, scheme := range SchemeNames() {
		scheme := scheme
		t.Run(scheme, func(t *testing.T) {
			cfg, err := ConfigFor(scheme, smallConfig())
			if err != nil {
				t.Fatal(err)
			}
			res, err := Run(cfg, Options{
				Scheme: scheme, Benchmark: mustBench(t, "SPMV"),
				OpsBudget: 32, Seed: 2, Invariants: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.RemoteRequests() == 0 {
				t.Skip("no remote translations to validate")
			}
		})
	}
}

func TestConfigForRejectsUnknown(t *testing.T) {
	if _, err := ConfigFor("nope", smallConfig()); !errors.Is(err, ErrUnknownScheme) {
		t.Errorf("ConfigFor err = %v, want ErrUnknownScheme", err)
	}
	if _, err := Run(smallConfig(), Options{Scheme: "nope", Benchmark: mustBench(t, "PR")}); !errors.Is(err, ErrUnknownScheme) {
		t.Errorf("Run err = %v, want ErrUnknownScheme", err)
	}
}

// TestRunContextCancellation: a cancelled context aborts the engine between
// slices, and RunContext with a live context matches Run exactly.
func TestRunContextCancellation(t *testing.T) {
	cfg, _ := ConfigFor("baseline", smallConfig())
	opts := Options{Scheme: "baseline", Benchmark: mustBench(t, "PR"), OpsBudget: 24, Seed: 1}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunContext(ctx, cfg, opts); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled RunContext err = %v, want context.Canceled", err)
	}

	got, err := RunContext(context.Background(), cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Run(cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("RunContext result differs from Run")
	}
}

func mustBench(t *testing.T, abbr string) workload.Benchmark {
	t.Helper()
	b, err := workload.ByAbbr(abbr)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestQueueSeries: QueueWindow records the IOMMU queue-depth series.
func TestQueueSeries(t *testing.T) {
	cfg, _ := ConfigFor("baseline", smallConfig())
	res, err := Run(cfg, Options{
		Scheme: "baseline", Benchmark: mustBench(t, "SPMV"),
		OpsBudget: 32, Seed: 1, QueueWindow: 10000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.QueueSeries == nil || res.QueueSeries.Len() == 0 {
		t.Error("queue series not recorded")
	}
}

func TestHooksSeeRequests(t *testing.T) {
	cfg, _ := ConfigFor("baseline", smallConfig())
	seen := 0
	res, err := Run(cfg, Options{
		Scheme: "baseline", Benchmark: mustBench(t, "SPMV"),
		OpsBudget: 32, Seed: 1,
		Hooks: []iommu.RequestHook{iommu.RequestHookFunc(
			func(now sim.VTime, req *xlat.Request) { seen++ })},
	})
	if err != nil {
		t.Fatal(err)
	}
	if uint64(seen) != res.IOMMU.Requests {
		t.Errorf("hook saw %d, IOMMU counted %d", seen, res.IOMMU.Requests)
	}
	if seen == 0 {
		t.Error("hook saw nothing")
	}
}

func TestGPMPositionImbalanceExists(t *testing.T) {
	// O2: central GPMs should finish no later than corner GPMs on a
	// translation-heavy workload under the baseline.
	res := mustRun(t, "baseline", "SPMV", 48)
	var centerSum, cornerSum sim.VTime
	var centerN, cornerN int
	for i, c := range res.GPMCoords {
		switch c.Chebyshev(res.GPMCoords[0]) {
		default:
		}
		ring := maxAbs(c.X-2, c.Y-2) // 5x5 CPU at (2,2)
		if ring == 1 {
			centerSum += res.GPMFinish[i]
			centerN++
		}
		if ring == 2 {
			cornerSum += res.GPMFinish[i]
			cornerN++
		}
	}
	if centerN == 0 || cornerN == 0 {
		t.Fatal("ring classification failed")
	}
	center := float64(centerSum) / float64(centerN)
	corner := float64(cornerSum) / float64(cornerN)
	if center > corner*1.05 {
		t.Errorf("central GPMs slower than peripheral: center=%.0f corner=%.0f", center, corner)
	}
}

func maxAbs(a, b int) int {
	if a < 0 {
		a = -a
	}
	if b < 0 {
		b = -b
	}
	if a > b {
		return a
	}
	return b
}
