// Public-API tests for the invariant checker: the cross-scheme conformance
// matrix (WithInvariants runs clean on every scheme × benchmark pair at the
// default configuration), the determinism guarantees (results byte-identical
// with invariants on or off, and serial identical to parallel), and the
// error-surface contract.
package hdpat_test

import (
	"context"
	"reflect"
	"testing"

	"hdpat"
	"hdpat/internal/wafer"
)

// invariantSpecs is the full scheme × benchmark cross-product.
func invariantSpecs(ops int) []hdpat.RunSpec {
	var specs []hdpat.RunSpec
	for _, s := range hdpat.Schemes() {
		for _, b := range hdpat.Benchmarks() {
			specs = append(specs, hdpat.RunSpec{Scheme: s, Benchmark: b, OpsBudget: ops, Seed: 1})
		}
	}
	return specs
}

// TestInvariantsCleanAcrossAllSchemes runs the full scheme × benchmark
// cross-product under invariants on the small batch wafer: every pair must
// settle without a violation. The same matrix at the full Table I
// configuration is the cmd/verifyinv conformance harness, run by
// `make verify-invariants` in CI.
func TestInvariantsCleanAcrossAllSchemes(t *testing.T) {
	if testing.Short() {
		t.Skip("full conformance matrix in -short mode")
	}
	results, err := hdpat.RunBatch(context.Background(), batchCfg(),
		invariantSpecs(8), hdpat.WithInvariants())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		if r.Err != nil {
			t.Errorf("%s/%s: %v", r.Spec.Scheme, r.Spec.Benchmark, r.Err)
		}
	}
}

// TestInvariantsDefaultConfig spot-checks representative pairs at the
// unmodified Table I configuration.
func TestInvariantsDefaultConfig(t *testing.T) {
	if testing.Short() {
		t.Skip("default-config invariant runs in -short mode")
	}
	for _, spec := range []hdpat.RunSpec{
		{Scheme: "baseline", Benchmark: "SPMV", OpsBudget: 8, Seed: 1},
		{Scheme: "hdpat", Benchmark: "SPMV", OpsBudget: 8, Seed: 1},
		{Scheme: "iommutlb", Benchmark: "KM", OpsBudget: 8, Seed: 1},
	} {
		if _, err := hdpat.Simulate(hdpat.DefaultConfig(), spec,
			hdpat.WithInvariants(), hdpat.WithAttribution()); err != nil {
			t.Errorf("%s/%s: %v", spec.Scheme, spec.Benchmark, err)
		}
	}
}

// Invariant checking only observes: simulation outcomes are byte-identical
// with the checker on and off.
func TestInvariantsDeterminism(t *testing.T) {
	spec := hdpat.RunSpec{Scheme: "hdpat", Benchmark: "KM"}
	plain, err := hdpat.Simulate(obsConfig(), spec, hdpat.WithOpsBudget(16), hdpat.WithSeed(7))
	if err != nil {
		t.Fatal(err)
	}
	checked, err := hdpat.Simulate(obsConfig(), spec, hdpat.WithOpsBudget(16), hdpat.WithSeed(7),
		hdpat.WithInvariants(), hdpat.WithAttribution())
	if err != nil {
		t.Fatal(err)
	}
	checked.Breakdown = nil
	if !reflect.DeepEqual(plain, checked) {
		t.Error("invariant checking changed public-API results")
	}
}

// Same-seed serial and parallel batches under invariants are byte-identical.
func TestInvariantsSerialVsParallel(t *testing.T) {
	specs := []hdpat.RunSpec{
		{Scheme: "baseline", Benchmark: "SPMV", OpsBudget: 24, Seed: 1},
		{Scheme: "hdpat", Benchmark: "SPMV", OpsBudget: 24, Seed: 1},
		{Scheme: "iommutlb", Benchmark: "KM", OpsBudget: 24, Seed: 1},
		{Scheme: "redirect", Benchmark: "AES", OpsBudget: 24, Seed: 1},
	}
	serial, err := hdpat.RunBatch(context.Background(), batchCfg(), specs,
		hdpat.WithInvariants(), hdpat.WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := hdpat.RunBatch(context.Background(), batchCfg(), specs,
		hdpat.WithInvariants(), hdpat.WithWorkers(4))
	if err != nil {
		t.Fatal(err)
	}
	for i := range serial {
		serial[i].Wall, parallel[i].Wall = 0, 0
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Error("parallel batch under invariants differs from serial")
	}
	for _, r := range serial {
		if r.Err != nil {
			t.Errorf("%s/%s: %v", r.Spec.Scheme, r.Spec.Benchmark, r.Err)
		}
	}
}

// TestInvariants30x30 runs the invariant checker on the giant 30x30 wafer
// with the concentrated scale workload (see bench_scale_test.go): the
// conservation and accounting invariants must hold when most of the wafer
// is unmaterialized and link state is sparse — the configuration where a
// broken VisitLinks sweep or a resurrected lazy GPM would first show up.
func TestInvariants30x30(t *testing.T) {
	if testing.Short() {
		t.Skip("30x30 run is not short")
	}
	res, err := wafer.Run(scaleConfig(t), wafer.Options{
		Scheme: "hdpat", Benchmark: scaleWorkload(),
		OpsBudget: 8, Seed: 1,
		Invariants: true,
	})
	if err != nil {
		t.Fatalf("30x30 invariants: %v", err)
	}
	if res.Events == 0 || res.Cycles == 0 {
		t.Errorf("degenerate run: events=%d cycles=%d", res.Events, res.Cycles)
	}
}
