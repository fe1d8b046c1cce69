package main

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"hdpat"
	"hdpat/internal/attr"
	"hdpat/internal/iommu"
	"hdpat/internal/metrics"
	"hdpat/internal/wafer"
)

// observers selects the instrumentation a comparison runs with. The zero
// value is the timed configuration: no observers at all.
type observers struct {
	metrics, attribution, invariants bool
	// hook, when set, returns an IOMMU arrival hook per run.
	hook func(scheme string) iommu.RequestHook
}

// traced is the configuration of the traced run and of the digest check
// every timed op is held to.
func traced() observers { return observers{metrics: true, attribution: true, invariants: true} }

// comparison is one executed op: the baseline run and the scheme run.
type comparison struct{ Base, Res wafer.Result }

// compare runs op under the baseline and the scheme, serially: through the
// facade for Table II benchmarks, through the wafer layer for custom
// benchmarks and whenever the IOMMU arrival stream is captured (only
// wafer.Options exposes hooks).
func compare(ctx context.Context, op simOp, obs observers) (comparison, error) {
	if op.Facade && obs.hook == nil {
		opts := []hdpat.Option{hdpat.WithOpsBudget(op.Ops), hdpat.WithSeed(op.Seed), hdpat.WithWorkers(1)}
		if op.Routing != "" {
			opts = append(opts, hdpat.WithRouting(op.Routing))
		}
		if obs.metrics {
			opts = append(opts, hdpat.WithMetrics(hdpat.NewMetricsRegistry()))
		}
		if obs.attribution {
			opts = append(opts, hdpat.WithAttribution())
		}
		if obs.invariants {
			opts = append(opts, hdpat.WithInvariants())
		}
		c, err := hdpat.CompareContext(ctx, op.Cfg, scheme, op.Bench.Abbr, opts...)
		return comparison{c.Baseline, c.Result}, err
	}
	var c comparison
	var err error
	if c.Base, err = runWafer(ctx, op, "baseline", obs); err != nil {
		return c, err
	}
	c.Res, err = runWafer(ctx, op, scheme, obs)
	return c, err
}

// runWafer runs one scheme of op through the wafer layer.
func runWafer(ctx context.Context, op simOp, name string, obs observers) (wafer.Result, error) {
	cfg, err := wafer.ConfigFor(name, op.Cfg)
	if err != nil {
		return wafer.Result{}, err
	}
	o := wafer.Options{
		Scheme: name, Benchmark: op.Bench, OpsBudget: op.Ops, Seed: op.Seed,
		Routing: op.Routing, Invariants: obs.invariants,
	}
	if obs.metrics {
		o.Metrics = metrics.NewRegistry()
	}
	if obs.attribution {
		o.Attribution = &attr.Config{}
	}
	if obs.hook != nil {
		o.Hooks = []iommu.RequestHook{obs.hook(name)}
	}
	return wafer.RunContext(ctx, cfg, o)
}

// opRecord is the outcome of one timed op. A failed op keeps its record:
// Err is set and the op counts in fail_ratio.
type opRecord struct {
	Pass, Index int
	Lat         time.Duration
	Alloc       uint64 // TotalAlloc delta across the op, bytes
	Events      uint64
	Cycles      uint64
	Speedup     float64
	Digest      string
	Err         error
}

func (r *opRecord) fill(c comparison) {
	r.Events = c.Base.Events + c.Res.Events
	r.Cycles = uint64(c.Base.Cycles) + uint64(c.Res.Cycles)
	r.Speedup = c.Res.Speedup(c.Base)
	r.Digest, r.Err = opDigest(c.Base, c.Res)
}

// timedOp runs and times one op with no observers. It collects garbage
// first, untimed, so every op starts from the same heap state rather than
// paying for its predecessor's garbage.
func timedOp(ctx context.Context, op simOp, pass, index int) opRecord {
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	c, err := compare(ctx, op, observers{})
	lat := time.Since(t0)
	runtime.ReadMemStats(&m1)
	rec := opRecord{Pass: pass, Index: index, Lat: lat, Alloc: m1.TotalAlloc - m0.TotalAlloc, Err: err}
	if err == nil {
		rec.fill(c)
	}
	return rec
}

// setupInproc is one set-up of an in-process workload: derive the inputs
// from the seed, then run the first op once untimed so lazy
// initialisation and heap growth are paid before timing. It returns the
// pass and the set-up's duration.
func setupInproc(ctx context.Context, build func() ([]simOp, error)) ([]simOp, time.Duration, error) {
	runtime.GC()
	t0 := time.Now()
	pass, err := build()
	if err != nil {
		return nil, 0, err
	}
	if _, err := compare(ctx, pass[0], observers{}); err != nil {
		return nil, 0, fmt.Errorf("warm-up %s: %w", pass[0].Label, err)
	}
	return pass, time.Since(t0), nil
}

// timePasses runs the pass `passes` times, serially, one op at a time.
func timePasses(ctx context.Context, pass []simOp, passes int) []opRecord {
	var recs []opRecord
	for p := 0; p < passes; p++ {
		for i, op := range pass {
			recs = append(recs, timedOp(ctx, op, p, i))
		}
	}
	return recs
}

// runParallel calls fn(i) for i in [0, n) on at most workers goroutines.
func runParallel(n, workers int, fn func(i int)) {
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
}

// tracedDigests reruns every op of the pass with metrics, attribution and
// the invariant checker, returning each op's canonical digest or the error
// (an invariant violation included) that prevented one.
func tracedDigests(ctx context.Context, pass []simOp, workers int) ([]string, []error) {
	digests := make([]string, len(pass))
	errs := make([]error, len(pass))
	runParallel(len(pass), workers, func(i int) {
		c, err := compare(ctx, pass[i], traced())
		if err == nil {
			digests[i], err = opDigest(c.Base, c.Res)
		}
		errs[i] = err
	})
	return digests, errs
}

// checkDigests fails every timed record whose digest differs from the
// traced run of the same op, or whose op failed in the traced run. It
// returns the number of records it failed.
func checkDigests(recs []opRecord, want []string, wantErr []error) int {
	n := 0
	for i := range recs {
		r := &recs[i]
		if r.Err != nil {
			continue
		}
		switch {
		case wantErr[r.Index] != nil:
			r.Err = fmt.Errorf("traced run: %w", wantErr[r.Index])
		case r.Digest != want[r.Index]:
			r.Err = fmt.Errorf("digest %.12s != traced %.12s", r.Digest, want[r.Index])
		default:
			continue
		}
		n++
	}
	return n
}

// failures counts failed records.
func failures(recs []opRecord) int {
	n := 0
	for _, r := range recs {
		if r.Err != nil {
			n++
		}
	}
	return n
}
