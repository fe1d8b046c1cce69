package hdpat_test

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"hdpat"
)

// batchCfg is a small wafer that keeps batch tests fast.
func batchCfg() hdpat.Config {
	cfg := hdpat.DefaultConfig()
	cfg.MeshW, cfg.MeshH = 5, 5
	cfg.GPM.NumCUs = 8
	return cfg
}

// crossSpecs builds the 3 schemes x 3 benchmarks batch the acceptance
// criteria name.
func crossSpecs() []hdpat.RunSpec {
	var specs []hdpat.RunSpec
	for _, scheme := range []string{"baseline", "transfw", "hdpat"} {
		for _, bench := range []string{"PR", "KM", "FIR"} {
			specs = append(specs, hdpat.RunSpec{Scheme: scheme, Benchmark: bench, OpsBudget: 24, Seed: 1})
		}
	}
	return specs
}

// TestRunBatchMatchesSerial asserts the tentpole determinism property: a
// parallel batch returns results identical to the same specs run serially
// through Simulate.
func TestRunBatchMatchesSerial(t *testing.T) {
	cfg := batchCfg()
	specs := crossSpecs()

	serial := make([]hdpat.Result, len(specs))
	for i, spec := range specs {
		res, err := hdpat.Simulate(cfg, spec)
		if err != nil {
			t.Fatalf("serial %s/%s: %v", spec.Scheme, spec.Benchmark, err)
		}
		serial[i] = res
	}

	parallel, err := hdpat.RunBatch(context.Background(), cfg, specs, hdpat.WithWorkers(4))
	if err != nil {
		t.Fatal(err)
	}
	if len(parallel) != len(specs) {
		t.Fatalf("got %d results, want %d", len(parallel), len(specs))
	}
	for i, run := range parallel {
		if run.Err != nil {
			t.Fatalf("parallel %s/%s: %v", specs[i].Scheme, specs[i].Benchmark, run.Err)
		}
		if run.Spec != specs[i] {
			t.Errorf("run %d spec %+v, want %+v", i, run.Spec, specs[i])
		}
		if !reflect.DeepEqual(run.Result, serial[i]) {
			t.Errorf("%s/%s: parallel result differs from serial\nparallel: %+v\nserial:   %+v",
				specs[i].Scheme, specs[i].Benchmark, run.Result, serial[i])
		}
	}
}

// TestRunBatchCancellation cancels a batch as its second run starts and
// expects that run and every later one to carry the context error.
func TestRunBatchCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	specs := crossSpecs()
	// One worker serialises the schedule: run 0 completes, resolving run
	// 1's options cancels, and every later run settles with ctx's error
	// before it starts simulating.
	runs, err := hdpat.RunBatch(ctx, batchCfg(), specs,
		hdpat.WithWorkers(1),
		hdpat.WithPerRun(func(i int) []hdpat.Option {
			if i == 1 {
				cancel()
			}
			return nil
		}))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("batch error = %v, want context.Canceled", err)
	}
	if runs[0].Err != nil {
		t.Fatalf("first run failed: %v", runs[0].Err)
	}
	for i := 1; i < len(runs); i++ {
		if !errors.Is(runs[i].Err, context.Canceled) {
			t.Errorf("run %d err = %v, want context.Canceled", i, runs[i].Err)
		}
	}
}

// TestSimulateContextCancelled exercises mid-run cancellation: a cancelled
// context aborts the engine between slices.
func TestSimulateContextCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := hdpat.SimulateContext(ctx, batchCfg(),
		hdpat.RunSpec{Scheme: "hdpat", Benchmark: "PR", OpsBudget: 24, Seed: 1})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestRunBatchPanicRecovery injects a panic into one run of a batch (via a
// panicking option hook) and expects it to surface as that run's error
// while the rest of the batch completes.
func TestRunBatchPanicRecovery(t *testing.T) {
	specs := []hdpat.RunSpec{
		{Scheme: "baseline", Benchmark: "PR", OpsBudget: 24, Seed: 1},
		{Scheme: "hdpat", Benchmark: "PR", OpsBudget: 24, Seed: 1},
		{Scheme: "transfw", Benchmark: "PR", OpsBudget: 24, Seed: 1},
	}
	runs, err := hdpat.RunBatch(context.Background(), batchCfg(), specs,
		hdpat.WithPerRun(func(i int) []hdpat.Option {
			if i != 1 {
				return nil
			}
			return []hdpat.Option{hdpat.WithIOMMU(func(*hdpat.IOMMUConfig) { panic("boom") })}
		}))
	if err != nil {
		t.Fatal(err)
	}
	var pe *hdpat.PanicError
	if !errors.As(runs[1].Err, &pe) || pe.Value != "boom" {
		t.Fatalf("run 1 err = %v, want *PanicError(boom)", runs[1].Err)
	}
	for _, i := range []int{0, 2} {
		if runs[i].Err != nil {
			t.Errorf("run %d err = %v, want nil", i, runs[i].Err)
		}
		if runs[i].Result.Cycles == 0 {
			t.Errorf("run %d produced empty result", i)
		}
	}
}

// TestSentinelErrors checks the typed name-resolution errors across every
// entry point that resolves names.
func TestSentinelErrors(t *testing.T) {
	cfg := batchCfg()
	if _, err := hdpat.Simulate(cfg, hdpat.RunSpec{Scheme: "nope", Benchmark: "PR"}); !errors.Is(err, hdpat.ErrUnknownScheme) {
		t.Errorf("Simulate scheme err = %v, want ErrUnknownScheme", err)
	}
	if _, err := hdpat.Simulate(cfg, hdpat.RunSpec{Benchmark: "NOPE"}); !errors.Is(err, hdpat.ErrUnknownBenchmark) {
		t.Errorf("Simulate benchmark err = %v, want ErrUnknownBenchmark", err)
	}
	// The wrapped message carries the offending name.
	_, err := hdpat.Simulate(cfg, hdpat.RunSpec{Scheme: "nope", Benchmark: "PR"})
	if err == nil || !contains(err.Error(), `"nope"`) {
		t.Errorf("scheme error %q does not name the scheme", err)
	}
	if _, err := hdpat.Compare(cfg, "nope", "PR"); !errors.Is(err, hdpat.ErrUnknownScheme) {
		t.Errorf("Compare err = %v, want ErrUnknownScheme", err)
	}
	runs, err := hdpat.RunBatch(context.Background(), cfg, []hdpat.RunSpec{
		{Scheme: "hdpat", Benchmark: "NOPE", OpsBudget: 24, Seed: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(runs[0].Err, hdpat.ErrUnknownBenchmark) {
		t.Errorf("RunBatch run err = %v, want ErrUnknownBenchmark", runs[0].Err)
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

// TestCompareAllSharesBaseline checks the cross-product helper: cell
// layout, shared baselines, and per-cell speedups.
func TestCompareAllSharesBaseline(t *testing.T) {
	cfg := batchCfg()
	schemes := []string{"transfw", "hdpat"}
	benches := []string{"PR", "KM"}
	cmp, err := hdpat.CompareAll(context.Background(), cfg, schemes, benches,
		hdpat.WithOpsBudget(24), hdpat.WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(cmp) != len(schemes)*len(benches) {
		t.Fatalf("got %d cells, want %d", len(cmp), len(schemes)*len(benches))
	}
	for bi, bench := range benches {
		var first hdpat.Result
		for si, scheme := range schemes {
			c := cmp[bi*len(schemes)+si]
			if c.Err != nil {
				t.Fatalf("%s/%s: %v", scheme, bench, c.Err)
			}
			if c.Scheme != scheme || c.Benchmark != bench {
				t.Errorf("cell %d/%d labelled %s/%s", bi, si, c.Scheme, c.Benchmark)
			}
			if c.Speedup <= 0 {
				t.Errorf("%s/%s speedup = %f", scheme, bench, c.Speedup)
			}
			// Every scheme on this benchmark must share one baseline run.
			if si == 0 {
				first = c.Baseline
			} else if !reflect.DeepEqual(c.Baseline, first) {
				t.Errorf("%s/%s does not share the benchmark baseline", scheme, bench)
			}
		}
	}
}

// TestOptionOverrides checks WithOpsBudget/WithSeed override the spec and
// WithConfig/WithIOMMU hooks stack in order.
func TestOptionOverrides(t *testing.T) {
	cfg := batchCfg()
	spec := hdpat.RunSpec{Scheme: "hdpat", Benchmark: "FIR", OpsBudget: 999, Seed: 999}
	viaOpts, err := hdpat.Simulate(cfg, spec,
		hdpat.WithOpsBudget(24), hdpat.WithSeed(2),
		hdpat.WithConfig(func(c *hdpat.Config) { c.IOMMU.PrefetchDegree = 2 }),
		hdpat.WithIOMMU(func(io *hdpat.IOMMUConfig) { io.PrefetchDegree = 8 })) // later hook wins
	if err != nil {
		t.Fatal(err)
	}
	viaSpec, err := hdpat.Simulate(cfg,
		hdpat.RunSpec{Scheme: "hdpat", Benchmark: "FIR", OpsBudget: 24, Seed: 2},
		hdpat.WithIOMMU(func(io *hdpat.IOMMUConfig) { io.PrefetchDegree = 8 }))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(viaOpts, viaSpec) {
		t.Error("option overrides did not replace the spec's budget/seed")
	}
	if viaOpts.IOMMU.Prefetches == 0 {
		t.Error("IOMMU hook had no effect")
	}
}
