package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"runtime"
	"strings"
	"time"
)

// Set-up of hdpatd-jobs runs this many times, each on a fresh state
// directory; setup_s is the median, and the last daemon serves the timed
// phase.
const daemonSetupReps = 5

// rssEvery is how often the daemon's resident set size is sampled. The
// daemon's own garbage collector sets its peak, so a single VmHWM reading
// moves with GC timing; the 99th percentile of the samples does not.
const rssEvery = 10 * time.Millisecond

// nominalBlock is one block's time on the reference host, in seconds.
const nominalBlock = 3.0

// setupDaemon is one set-up of hdpatd-jobs: derive the first block's specs
// from the seed, start a daemon on a fresh state directory under outDir,
// and run one warm-up job to done, so the daemon's first-job costs are paid
// before timing.
func setupDaemon(ctx context.Context, hc *http.Client, bin, outDir string, seed int64) (*daemon, *jobStream, time.Duration, error) {
	t0 := time.Now()
	js := newJobStream(seed)
	js.op(jobBlock - 1)
	dir, err := os.MkdirTemp(outDir, "hdpatd-state-")
	if err != nil {
		return nil, nil, 0, err
	}
	d, err := startDaemon(ctx, hc, bin, dir)
	if err != nil {
		os.RemoveAll(dir)
		return nil, nil, 0, err
	}
	if w := runJob(ctx, hc, d.base, jobOp{Index: -1, Spec: js.warmUp, Repeat: -1}, nil, 0); w.Err != nil {
		d.shutdown()
		return nil, nil, 0, fmt.Errorf("warm-up job: %w", w.Err)
	}
	return d, js, time.Since(t0), nil
}

// e2eJobs measures hdpatd-jobs end to end: set up daemonSetupReps times,
// drive a fixed number of blocks through two closed-loop clients, then
// recompute every job's artifacts in process with service.Materialize.
func e2eJobs(ctx context.Context, bin string, seed int64, seconds float64, rep *report, outDir string) error {
	hc := newHTTPClient()
	var d *daemon
	var js *jobStream
	var setups []float64
	for i := 0; i < daemonSetupReps; i++ {
		dd, s, dur, err := setupDaemon(ctx, hc, bin, outDir, seed)
		if err != nil {
			return err
		}
		setups = append(setups, dur.Seconds())
		if i < daemonSetupReps-1 {
			dd.shutdown()
		} else {
			d, js = dd, s
		}
	}
	defer d.shutdown()
	blocks := passCount(seconds, nominalBlock)
	rss := sampleRSS(d.cmd.Process.Pid, rssEvery)
	outs := runJobs(ctx, hc, d.base, js, blocks*jobBlock, nil)
	samples := rss.finish()
	peak, err := peakRSSMB(d.cmd.Process.Pid)
	if err != nil {
		return err
	}
	d.shutdown()
	alloc := checkMaterialized(ctx, outs, jobBlock, runtime.NumCPU())

	first, last := outs[0].Start, outs[0].End
	var events, cycles uint64
	var lats, speedups []float64
	for _, o := range outs {
		if o.Start.Before(first) {
			first = o.Start
		}
		if o.End.After(last) {
			last = o.End
		}
		if o.Err != nil {
			rep.Failed++
			fmt.Fprintf(os.Stderr, "hdpatbench: job op %d: %v\n", o.Op.Index, o.Err)
			continue
		}
		lats = append(lats, o.Lat().Seconds())
		if o.Code == http.StatusCreated {
			events += o.Events
		}
		if o.Op.Index < jobBlock && o.Op.Repeat < 0 {
			cycles += o.Cycles
			speedups = append(speedups, o.Speedup)
		}
	}
	rep.Attempted = len(outs)
	wall := last.Sub(first).Seconds()
	rep.add("setup_s", median(setups), "s").Note = fmt.Sprintf("median of %d set-ups (start to /readyz + warm-up job)", daemonSetupReps)
	// The two clients overlap consecutive blocks, so a block's own span
	// is ill-defined; the timed phase divided by its blocks is not.
	rep.add("wall_s", wall/float64(blocks), "s").Note = fmt.Sprintf("timed phase / %d blocks of %d ops", blocks, jobBlock)
	rep.add("ops_per_s", ratio(float64(len(lats)), wall), "1/s").Note = fmt.Sprintf("%d clients, closed loop", clients)
	rep.addLatency(lats)
	rep.add("events_per_s", ratio(float64(events), wall), "1/s").Note = "events of the runs hdpatd executed"
	rep.add("alloc_mb", float64(alloc)/1e6, "MB").Note = "TotalAlloc of service.Materialize of block 0 in process; hdpatd exports no TotalAlloc"
	rssP99 := percentile(samples, 99)
	rep.add("max_rss_mb", rssP99, "MB").Note = fmt.Sprintf("p99 of %d VmRSS samples of hdpatd, every %v (VmHWM %.1f MB)",
		len(samples), rssEvery, peak)
	rep.add("sim_cycles", float64(cycles), "cycles").Note = "baseline + hdpat, fresh jobs of block 0"
	rep.add("speedup_geomean", geomean(speedups), "x").Note = fmt.Sprintf("over %d fresh jobs", len(speedups))
	return nil
}

// timelineEvent is one event of an hdpatd job timeline (Chrome trace
// JSON, microseconds since the job was accepted).
type timelineEvent struct {
	Ph   string `json:"ph"`
	Tid  string `json:"tid"`
	Name string `json:"name"`
	Ts   uint64 `json:"ts"`
	Dur  uint64 `json:"dur"`
}

// jobTimeline fetches a job's queue and run spans from its timeline.
func jobTimeline(ctx context.Context, hc *http.Client, base, id string) (queue, runs []timelineEvent, err error) {
	code, body, err := get(ctx, hc, base+"/v1/jobs/"+id+"/timeline")
	if err != nil {
		return nil, nil, err
	}
	if code != http.StatusOK {
		return nil, nil, fmt.Errorf("timeline %s: HTTP %d", id, code)
	}
	var evs []timelineEvent
	if err := json.Unmarshal(body, &evs); err != nil {
		return nil, nil, fmt.Errorf("timeline %s: %w", id, err)
	}
	for _, e := range evs {
		switch {
		case e.Ph == "X" && e.Tid == "job" && e.Name == "queued":
			queue = append(queue, e)
		case e.Ph == "X" && e.Tid == "runs" && strings.HasPrefix(e.Name, "run "):
			runs = append(runs, e)
		}
	}
	return queue, runs, nil
}

// layersJobs is the traced run of hdpatd-jobs: block 0 untraced on one
// fresh daemon, then traced on another (spans around submit, wait and
// artifact fetch, plus the daemon's queue and run spans), then the fresh
// jobs' specs through the in-process layer pass.
func layersJobs(ctx context.Context, bin string, seed int64, rep *report, outDir string) error {
	hc := newHTTPClient()
	block := func(rec *recorder) ([]jobOutcome, *daemon, time.Duration, error) {
		d, js, _, err := setupDaemon(ctx, hc, bin, outDir, seed)
		if err != nil {
			return nil, nil, 0, err
		}
		t0 := time.Now()
		outs := runJobs(ctx, hc, d.base, js, jobBlock, rec)
		return outs, d, time.Since(t0), nil
	}
	outs, d, untraced, err := block(nil)
	if err != nil {
		return err
	}
	d.shutdown()
	rec := newRecorder()
	outs, d, tracedWall, err := block(rec)
	if err != nil {
		return err
	}
	defer d.shutdown()

	var submit, queue, runWall, overhead, fetch []float64
	var bytes int64
	var pass []simOp
	for _, o := range outs {
		rep.Attempted++
		if o.Err != nil {
			rep.Failed++
			fmt.Fprintf(os.Stderr, "hdpatbench: job op %d: %v\n", o.Op.Index, o.Err)
			continue
		}
		submit = append(submit, o.Submit.Seconds())
		fetch = append(fetch, o.Fetch.Seconds())
		bytes += o.Bytes
		if o.Code != http.StatusCreated {
			continue
		}
		q, runs, err := jobTimeline(ctx, hc, d.base, o.ID)
		if err != nil {
			return err
		}
		var qs, rs time.Duration
		for _, e := range q {
			qs += time.Duration(e.Dur) * time.Microsecond
			rec.add("service.queue", o.WaitSpan, o.Lane, o.Start.Add(time.Duration(e.Ts)*time.Microsecond),
				o.Start.Add(time.Duration(e.Ts+e.Dur)*time.Microsecond))
		}
		for _, e := range runs {
			rs += time.Duration(e.Dur) * time.Microsecond
			rec.add("service.run", o.WaitSpan, o.Lane, o.Start.Add(time.Duration(e.Ts)*time.Microsecond),
				o.Start.Add(time.Duration(e.Ts+e.Dur)*time.Microsecond))
		}
		queue = append(queue, qs.Seconds())
		runWall = append(runWall, rs.Seconds())
		overhead = append(overhead, (o.Submit + o.Wait - qs - rs).Seconds())
		pass = append(pass, jobSimOp(o.Op.Spec))
	}
	counters, err := d.counters(ctx, hc)
	if err != nil {
		return err
	}
	d.shutdown()

	lp := &layerPass{pass: pass, rec: rec}
	lp.run(ctx)
	if err := lp.layerMetrics(ctx, rep); err != nil {
		return err
	}
	lp.sameResults(rep)
	rep.add("service.submit_s", median(submit), "s").Note = "median POST /v1/jobs"
	rep.add("service.queue_s", median(queue), "s").Note = "median per executed job, from its timeline"
	rep.add("service.run_s", median(runWall), "s").Note = "median per executed job: sum of run spans"
	rep.add("service.overhead_s", median(overhead), "s").Note = "median of submit-to-terminal - queue - runs"
	rep.add("service.artifact_fetch_s", median(fetch), "s").Note = "median per op, all artifacts"
	rep.add("service.artifact_mb", float64(bytes)/1e6, "MB").Note = fmt.Sprintf("fetched by %d ops", len(fetch))
	rep.add("service.dedup_hits", float64(counters["service.jobs_deduped"]), "count")
	rep.add("service.runs_executed", float64(counters["service.runs_executed"]), "count").Note = "the warm-up job's 2 runs included"
	overheadAll := tracedWall - untraced + lp.tracedAt - lp.untraced
	rep.secs("trace.overhead_s", overheadAll).Note = fmt.Sprintf("block %.3fs traced vs %.3fs; in-process pass %.3fs vs %.3fs",
		tracedWall.Seconds(), untraced.Seconds(), lp.tracedAt.Seconds(), lp.untraced.Seconds())
	rep.Attempted += lp.attempted
	rep.Failed += lp.failed
	return writeSpans(rec, rep, outDir)
}
