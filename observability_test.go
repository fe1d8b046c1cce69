// Public-API tests for the observability subsystem: WithMetrics /
// WithTrace wiring through Simulate, RunBatch and CompareAll, the per-run
// snapshot semantics, and the determinism guarantee.
package hdpat_test

import (
	"bytes"
	"context"
	"encoding/json"
	"reflect"
	"testing"

	"hdpat"
)

func obsConfig() hdpat.Config {
	cfg := hdpat.DefaultConfig()
	cfg.MeshW, cfg.MeshH = 5, 5
	cfg.GPM.NumCUs = 8
	cfg.WorkloadScale = 32
	return cfg
}

func TestSimulateWithMetrics(t *testing.T) {
	reg := hdpat.NewMetricsRegistry()
	res, err := hdpat.Simulate(obsConfig(), hdpat.RunSpec{Scheme: "hdpat", Benchmark: "SPMV"},
		hdpat.WithOpsBudget(16), hdpat.WithSeed(1), hdpat.WithMetrics(reg))
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics == nil {
		t.Fatal("Result.Metrics is nil")
	}
	// Single runs report into the caller's registry live.
	live := reg.Snapshot()
	if live.Counter("sim.events_dispatched") != res.Metrics.Counter("sim.events_dispatched") {
		t.Error("caller registry and result snapshot disagree")
	}
	if res.Metrics.Counter("noc.messages") == 0 {
		t.Error("no NoC series")
	}
}

func TestSimulateWithTraceChrome(t *testing.T) {
	var buf bytes.Buffer
	_, err := hdpat.Simulate(obsConfig(), hdpat.RunSpec{Scheme: "baseline", Benchmark: "SPMV"},
		hdpat.WithOpsBudget(8), hdpat.WithSeed(1), hdpat.WithTrace(&buf))
	if err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatalf("Chrome trace is not valid JSON: %v", err)
	}
	if len(events) == 0 {
		t.Fatal("no trace events")
	}
}

// TestRunBatchMetricsMerge: batch runs get private registries whose
// snapshots land per-run and merge into the caller's registry.
func TestRunBatchMetricsMerge(t *testing.T) {
	reg := hdpat.NewMetricsRegistry()
	specs := []hdpat.RunSpec{
		{Scheme: "baseline", Benchmark: "SPMV"},
		{Scheme: "hdpat", Benchmark: "SPMV"},
	}
	runs, err := hdpat.RunBatch(context.Background(), obsConfig(), specs,
		hdpat.WithOpsBudget(8), hdpat.WithSeed(1), hdpat.WithMetrics(reg))
	if err != nil {
		t.Fatal(err)
	}
	var sum uint64
	for i, r := range runs {
		if r.Err != nil {
			t.Fatal(r.Err)
		}
		if r.Result.Metrics == nil {
			t.Fatalf("run %d has no snapshot", i)
		}
		sum += r.Result.Metrics.Counter("noc.messages")
	}
	agg := reg.Snapshot()
	if got := agg.Counter("noc.messages"); got != sum {
		t.Errorf("aggregate noc.messages = %d, per-run sum = %d", got, sum)
	}
	if agg.Counter("runner.runs") != 2 {
		t.Errorf("runner.runs = %d, want 2", agg.Counter("runner.runs"))
	}
}

// TestRunBatchSharedTrace: batch runs share one trace stream with events
// tagged by submission index in the Chrome pid.
func TestRunBatchSharedTrace(t *testing.T) {
	var buf bytes.Buffer
	specs := []hdpat.RunSpec{
		{Scheme: "baseline", Benchmark: "SPMV"},
		{Scheme: "hdpat", Benchmark: "SPMV"},
	}
	_, err := hdpat.RunBatch(context.Background(), obsConfig(), specs,
		hdpat.WithOpsBudget(8), hdpat.WithSeed(1), hdpat.WithWorkers(2),
		hdpat.WithTrace(&buf))
	if err != nil {
		t.Fatal(err)
	}
	var events []struct{ Pid int }
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatalf("batch trace is not valid JSON: %v", err)
	}
	perPid := map[int]int{}
	for _, e := range events {
		perPid[e.Pid]++
	}
	if len(perPid) != len(specs) || perPid[0] == 0 || perPid[1] == 0 {
		t.Errorf("events per pid = %v, want both batch indices", perPid)
	}
}

// TestCompareAllMetricsDiff: the acceptance criterion — CompareAll diffing
// hdpat's metric set against the baseline's.
func TestCompareAllMetricsDiff(t *testing.T) {
	reg := hdpat.NewMetricsRegistry()
	cmp, err := hdpat.CompareAll(context.Background(), obsConfig(),
		[]string{"hdpat"}, []string{"SPMV"},
		hdpat.WithOpsBudget(16), hdpat.WithSeed(1), hdpat.WithMetrics(reg))
	if err != nil {
		t.Fatal(err)
	}
	if len(cmp) != 1 || cmp[0].Err != nil {
		t.Fatalf("cmp = %+v", cmp)
	}
	d := cmp[0].MetricsDiff()
	if d == nil {
		t.Fatal("MetricsDiff returned nil with metrics enabled")
	}
	// HDPAT's whole point: it walks the IOMMU less than the baseline.
	if d["iommu.walks"] >= 0 {
		t.Errorf("iommu.walks diff = %f, expected hdpat to walk less", d["iommu.walks"])
	}
	if _, ok := d["noc.messages"]; !ok {
		t.Error("diff missing noc.messages")
	}
	// Without metrics the diff is nil.
	plain, err := hdpat.Compare(obsConfig(), "hdpat", "SPMV",
		hdpat.WithOpsBudget(8), hdpat.WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	if plain.MetricsDiff() != nil {
		t.Error("MetricsDiff should be nil without WithMetrics")
	}
}

// TestPublicDeterminismWithObservability: simulation outcomes are identical
// with observability on and off, through the public API.
func TestPublicDeterminismWithObservability(t *testing.T) {
	spec := hdpat.RunSpec{Scheme: "hdpat", Benchmark: "KM"}
	plain, err := hdpat.Simulate(obsConfig(), spec, hdpat.WithOpsBudget(16), hdpat.WithSeed(7))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	observed, err := hdpat.Simulate(obsConfig(), spec, hdpat.WithOpsBudget(16), hdpat.WithSeed(7),
		hdpat.WithMetrics(hdpat.NewMetricsRegistry()), hdpat.WithTrace(&buf))
	if err != nil {
		t.Fatal(err)
	}
	observed.Metrics = nil
	if !reflect.DeepEqual(plain, observed) {
		t.Error("observability changed public-API results")
	}
}
