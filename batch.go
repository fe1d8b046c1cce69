package hdpat

import (
	"context"
	"fmt"
	"time"

	"hdpat/internal/attr"
	"hdpat/internal/metrics"
	"hdpat/internal/runner"
	"hdpat/internal/trace"
)

// RunResult is one run of a batch: the spec that produced it, its result or
// error, and its wall-clock cost. The simulated cost is Result.Cycles.
type RunResult struct {
	// Spec is the submitted spec (before option overrides).
	Spec RunSpec
	// Result is the simulation outcome (zero when Err is non-nil).
	Result Result
	// Err is this run's error: a simulation/validation error, the batch
	// context's error for runs cancelled before or while executing, or a
	// *PanicError when the run panicked. One failed run never aborts the
	// rest of the batch.
	Err error
	// Wall is this run's wall-clock execution time.
	Wall time.Duration
}

// RunBatch executes every spec concurrently on up to GOMAXPROCS workers
// (see WithWorkers) and returns one RunResult per spec, indexed by
// submission order regardless of completion order. Simulations are
// deterministic and share no state, so a parallel batch produces results
// identical to running the same specs serially.
//
// Cancelling ctx aborts in-flight simulations between engine slices and
// marks unstarted runs with ctx's error; the returned error is ctx.Err()
// (per-run failures are reported only on the individual RunResults).
func RunBatch(ctx context.Context, cfg Config, specs []RunSpec, opts ...Option) ([]RunResult, error) {
	rc := newRunConfig(opts)
	var batchTracer *trace.Tracer
	if rc.traceW != nil {
		batchTracer = trace.New(rc.traceW)
	}
	tasks := make([]runner.Task, len(specs))
	for i, spec := range specs {
		i, spec := i, spec
		tasks[i] = func(ctx context.Context) (Result, error) {
			rci := rc.forRun(i)
			if rci.metrics != nil || batchTracer != nil {
				// Concurrent runs must not share series: give each its own
				// registry and a child tracer tagged with the run index. The
				// run's snapshot folds into the caller's registry on settle.
				c := *rci
				if c.metrics != nil {
					c.metrics = metrics.NewRegistry()
				}
				c.tracer = batchTracer.Run(i)
				c.traceW = nil
				rci = &c
			}
			res, err := simulate(ctx, cfg, spec, rci)
			if rc.metrics != nil && res.Metrics != nil {
				rc.metrics.Merge(res.Metrics)
			}
			return res, err
		}
	}
	pool := &runner.Pool{Workers: rc.workers, Metrics: rc.metrics}
	outs := pool.Run(ctx, tasks)
	results := make([]RunResult, len(specs))
	for i, o := range outs {
		results[i] = RunResult{Spec: specs[i], Result: o.Result, Err: o.Err, Wall: o.Wall}
	}
	err := ctx.Err()
	if cerr := batchTracer.Close(); cerr != nil && err == nil {
		err = fmt.Errorf("hdpat: trace: %w", cerr)
	}
	return results, err
}

// ComparisonResult is one scheme-vs-baseline measurement on a benchmark.
type ComparisonResult struct {
	// Scheme and Benchmark name the comparison.
	Scheme    string
	Benchmark string
	// Baseline and Result are the two runs (sharing benchmark, budget and
	// seed).
	Baseline Result
	Result   Result
	// Speedup is Baseline.Cycles / Result.Cycles (0 when Err is non-nil).
	Speedup float64
	// Err reports a failure of either underlying run (only meaningful from
	// CompareAll; Compare returns it as its error instead).
	Err error
}

// MetricsDiff returns the scheme run's metric series minus the baseline's
// (counters and gauges subtract; histograms contribute their ".count"
// delta), the per-series view behind "why is this scheme faster". It
// returns nil unless both runs carried metrics (WithMetrics).
func (c ComparisonResult) MetricsDiff() map[string]float64 {
	if c.Result.Metrics == nil || c.Baseline.Metrics == nil {
		return nil
	}
	return c.Result.Metrics.Diff(c.Baseline.Metrics)
}

// BreakdownDiff returns the scheme run's per-stage latency attribution
// minus the baseline's: "<stage>.mean" and "<stage>.p95" deltas for the
// admission/pwq/walk/wire stages plus total, and the "requests" count delta.
// Negative stage deltas mean the scheme spends fewer cycles there. It
// returns nil unless both runs carried attribution (WithAttribution).
func (c ComparisonResult) BreakdownDiff() map[string]float64 {
	if c.Result.Breakdown == nil || c.Baseline.Breakdown == nil {
		return nil
	}
	return attr.Diff(c.Result.Breakdown, c.Baseline.Breakdown)
}

// Compare runs the same benchmark under the baseline and the given scheme
// and returns both results plus the speedup.
func Compare(cfg Config, scheme, benchmark string, opts ...Option) (ComparisonResult, error) {
	return CompareContext(context.Background(), cfg, scheme, benchmark, opts...)
}

// CompareContext is Compare with cancellation.
func CompareContext(ctx context.Context, cfg Config, scheme, benchmark string, opts ...Option) (ComparisonResult, error) {
	cmp, err := CompareAll(ctx, cfg, []string{scheme}, []string{benchmark}, opts...)
	if err != nil {
		return ComparisonResult{}, err
	}
	if cmp[0].Err != nil {
		return ComparisonResult{}, cmp[0].Err
	}
	return cmp[0], nil
}

// CompareAll evaluates every scheme against the baseline on every benchmark
// — the cross-product the experiments harness runs — as one parallel batch.
// Each benchmark's baseline is simulated once and shared across all its
// schemes. Results are ordered benchmark-major: the cell for
// (benchmarks[i], schemes[j]) is at index i*len(schemes)+j.
//
// Per-cell failures land on ComparisonResult.Err; like RunBatch, the
// returned error is only ctx.Err(). WithPerRun is not supported here (cells
// share their benchmark's baseline, so per-cell configs would desynchronise
// the pair); use RunBatch for heterogeneous grids.
func CompareAll(ctx context.Context, cfg Config, schemes, benchmarks []string, opts ...Option) ([]ComparisonResult, error) {
	// Flat batch layout, benchmark-major: [base, scheme0, scheme1, ...] per
	// benchmark.
	stride := len(schemes) + 1
	specs := make([]RunSpec, 0, len(benchmarks)*stride)
	for _, bench := range benchmarks {
		specs = append(specs, RunSpec{Scheme: "baseline", Benchmark: bench})
		for _, scheme := range schemes {
			specs = append(specs, RunSpec{Scheme: scheme, Benchmark: bench})
		}
	}
	opts = append(append([]Option{}, opts...), WithPerRun(nil))
	runs, err := RunBatch(ctx, cfg, specs, opts...)
	if err != nil {
		return nil, err
	}
	out := make([]ComparisonResult, 0, len(benchmarks)*len(schemes))
	for bi, bench := range benchmarks {
		base := runs[bi*stride]
		for si, scheme := range schemes {
			run := runs[bi*stride+1+si]
			cr := ComparisonResult{Scheme: scheme, Benchmark: bench,
				Baseline: base.Result, Result: run.Result}
			switch {
			case base.Err != nil:
				cr.Err = base.Err
			case run.Err != nil:
				cr.Err = run.Err
			default:
				cr.Speedup = cr.Result.Speedup(cr.Baseline)
			}
			out = append(out, cr)
		}
	}
	return out, nil
}
