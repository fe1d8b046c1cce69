// Command hdpatbench is the repository's benchmark: it runs one named
// workload against the simulator from outside — through the public facade,
// the wafer layer, the layer packages' constructors and the hdpatd HTTP
// API — checks every output, and prints the end-to-end metrics (or, with
// -trace 1, the per-layer metrics of a separate traced run). The last
// line of standard output is one JSON object: correct, attempted, failed
// and metrics. See README.md for the workloads, metrics and trace.
//
//	bash hdpatbench/run.sh --workload table2-sweep --seed 1 --seconds 20 --trace 0
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"syscall"
	"time"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "hdpatbench: %v\n", err)
		os.Exit(1)
	}
}

func run() error {
	name := flag.String("workload", "", "table2-sweep, giant-30x30 or hdpatd-jobs")
	seed := flag.Int64("seed", defaultSeed, fmt.Sprintf("workload seed (default %d; held-out %d)", defaultSeed, heldOutSeed))
	seconds := flag.Float64("seconds", 20, "run length: sets a fixed pass count from the reference host's pass time (the traced run makes one pass)")
	traceFlag := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics of a traced run")
	hdpatd := flag.String("hdpatd", "", "hdpatd binary (hdpatd-jobs)")
	commit := flag.String("commit", "unknown", "git commit of the checkout, when known")
	flag.Parse()
	if flag.NArg() != 0 || *seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		return errors.New("usage: hdpatbench --workload W --seed N --seconds S --trace 0|1")
	}
	if _, ok := inprocWorkloads[*name]; !ok && *name != "hdpatd-jobs" {
		return fmt.Errorf("unknown workload %q (table2-sweep, giant-30x30 or hdpatd-jobs)", *name)
	}
	if *name == "hdpatd-jobs" && *hdpatd == "" {
		return errors.New("hdpatd-jobs needs -hdpatd <binary>")
	}
	root, err := os.Getwd()
	if err != nil {
		return err
	}
	outDir := filepath.Join(root, resultsDir)
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	rep := &report{Workload: *name, Trace: *traceFlag == 1, Host: hostFacts(root, *commit, *seed)}
	if err := goldenAnchor(root); err != nil {
		return err
	}
	rep.notef("golden anchor: %d committed digests reproduced", len(anchorKeys))

	spec, inproc := inprocWorkloads[*name]
	switch {
	case inproc && rep.Trace:
		err = layersInproc(ctx, spec, *seed, rep, outDir)
	case inproc:
		err = e2eInproc(ctx, spec, *seed, *seconds, rep)
	case rep.Trace:
		err = layersJobs(ctx, *hdpatd, *seed, rep, outDir)
	default:
		err = e2eJobs(ctx, *hdpatd, *seed, *seconds, rep, outDir)
	}
	if err != nil {
		return err
	}
	path, err := rep.save(outDir)
	if err != nil {
		return err
	}
	rep.notef("full report: %s", path)
	return rep.print(os.Stdout)
}

// resultsDir, under the checkout root, receives the result, span and
// hdpatd state files.
const resultsDir = ".bench_build/results"

// inprocSpec describes a workload simulated in this process.
type inprocSpec struct {
	build func(seed int64) ([]simOp, error)
	// nominalPass is one pass's time on the reference host, in seconds.
	nominalPass float64
}

var inprocWorkloads = map[string]inprocSpec{
	"table2-sweep": {build: table2Pass, nominalPass: 7},
	"giant-30x30":  {build: func(seed int64) ([]simOp, error) { return giantPass(seed), nil }, nominalPass: 1.6},
}

// setupReps is how many times each run sets up; setup_s is the median.
const setupReps = 7

// e2eInproc measures an in-process workload end to end: set up three
// times, time a fixed number of serial passes, then hold every timed op
// to the traced, invariant-checked run of the same op.
func e2eInproc(ctx context.Context, spec inprocSpec, seed int64, seconds float64, rep *report) error {
	var pass []simOp
	var setups []float64
	for i := 0; i < setupReps; i++ {
		p, d, err := setupInproc(ctx, func() ([]simOp, error) { return spec.build(seed) })
		if err != nil {
			return err
		}
		pass = p
		setups = append(setups, d.Seconds())
	}
	passes := passCount(seconds, spec.nominalPass)
	recs := timePasses(ctx, pass, passes)
	rss, err := peakRSSMB(0)
	if err != nil {
		return err
	}
	digests, errs := tracedDigests(ctx, pass, runtime.NumCPU())
	checkDigests(recs, digests, errs)
	for _, r := range recs {
		if r.Err != nil {
			fmt.Fprintf(os.Stderr, "hdpatbench: op %d (%s) pass %d: %v\n", r.Index, pass[r.Index].Label, r.Pass, r.Err)
		}
	}
	rep.Attempted, rep.Failed = len(recs), failures(recs)

	passWall := make([]float64, passes)
	passAlloc := make([]float64, passes)
	var total time.Duration
	var events, cycles uint64
	var lats, speedups []float64
	for _, r := range recs {
		passWall[r.Pass] += r.Lat.Seconds()
		passAlloc[r.Pass] += float64(r.Alloc)
		if r.Err != nil {
			continue
		}
		total += r.Lat
		events += r.Events
		lats = append(lats, r.Lat.Seconds())
		if r.Pass == 0 {
			cycles += r.Cycles
			speedups = append(speedups, r.Speedup)
		}
	}
	rep.add("setup_s", median(setups), "s").Note = fmt.Sprintf("median of %d set-ups (inputs + warm-up op)", setupReps)
	rep.add("wall_s", median(passWall), "s").Note = fmt.Sprintf("median of %d passes of %d ops", passes, len(pass))
	rep.add("ops_per_s", ratio(float64(len(lats)), total.Seconds()), "1/s")
	rep.addLatency(lats)
	rep.add("events_per_s", ratio(float64(events), total.Seconds()), "1/s")
	rep.add("alloc_mb", median(passAlloc)/1e6, "MB").Note = "TotalAlloc per pass, median"
	rep.add("max_rss_mb", rss, "MB").Note = "VmHWM of this process"
	rep.add("sim_cycles", float64(cycles), "cycles").Note = "baseline + hdpat, one pass"
	rep.add("speedup_geomean", geomean(speedups), "x").Note = fmt.Sprintf("over %d ops", len(speedups))
	return nil
}

// layersInproc is the traced run of an in-process workload.
func layersInproc(ctx context.Context, spec inprocSpec, seed int64, rep *report, outDir string) error {
	pass, err := spec.build(seed)
	if err != nil {
		return err
	}
	lp := &layerPass{pass: pass, rec: newRecorder()}
	lp.run(ctx)
	if err := lp.layerMetrics(ctx, rep); err != nil {
		return err
	}
	lp.sameResults(rep)
	addServiceNA(rep)
	rep.secs("trace.overhead_s", lp.tracedAt-lp.untraced).Note = fmt.Sprintf("traced pass %.3fs - untraced %.3fs",
		lp.tracedAt.Seconds(), lp.untraced.Seconds())
	rep.Attempted, rep.Failed = lp.attempted, lp.failed
	return writeSpans(lp.rec, rep, outDir)
}

// serviceMetrics are the service layer's metrics, measured on hdpatd-jobs.
var serviceMetrics = [][2]string{
	{"service.submit_s", "s"}, {"service.queue_s", "s"}, {"service.run_s", "s"},
	{"service.overhead_s", "s"}, {"service.artifact_fetch_s", "s"},
	{"service.artifact_mb", "MB"}, {"service.dedup_hits", "count"},
	{"service.runs_executed", "count"},
}

// addServiceNA reports the service metrics as 0 on a workload that does
// not run hdpatd.
func addServiceNA(rep *report) {
	for _, m := range serviceMetrics {
		rep.add(m[0], 0, m[1]).Note = "n/a: no hdpatd on this workload"
	}
}
