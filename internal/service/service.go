package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"hdpat/internal/metrics"
	"hdpat/internal/runner"
	"hdpat/internal/trace"
	"hdpat/internal/wafer"
)

// defaultFlightEvents bounds each job's flight-recorder ring when
// Options.FlightEvents is 0.
const defaultFlightEvents = 256

// RunFunc executes one run of a job: the point's scheme on its benchmark at
// the spec's budget and seed. cmd/hdpatd supplies one built on the public
// hdpat API. reg is non-nil when the spec asked for metrics; the run should
// report into it. RunFunc must be deterministic — equal (spec, point) pairs
// must produce identical results — or resume loses its byte-identity
// guarantee.
type RunFunc func(ctx context.Context, spec JobSpec, p Point, reg *metrics.Registry) (wafer.Result, error)

// Options configure a Service.
type Options struct {
	// Dir is the state root: artifacts under Dir/artifacts, job journals
	// under Dir/jobs.
	Dir string
	// Run executes one run (required).
	Run RunFunc
	// JobWorkers bounds concurrently executing jobs (default 1: jobs run in
	// submission order; runs inside a job still parallelise).
	JobWorkers int
	// RunWorkers is the default per-job run concurrency when a spec leaves
	// Workers at 0 (default 1; <0 means GOMAXPROCS).
	RunWorkers int
	// QueueDepth bounds jobs waiting for a dispatcher (default 1024).
	QueueDepth int
	// Logger receives structured operational log records (nil = discard).
	// Job-scoped records carry job_id and spec_digest attributes, run-scoped
	// records additionally run_id/scheme/benchmark, and every job-scoped
	// record is also captured in that job's flight-recorder ring
	// (GET /v1/jobs/{id}/events).
	Logger *slog.Logger
	// FlightEvents bounds each job's flight-recorder ring (default 256).
	FlightEvents int
	// CheckSpec, when set, vets each submitted spec beyond JobSpec.Validate.
	// cmd/hdpatd plugs in the full config.Validate on the job's effective
	// system config, so a hostile spec (overflowing mesh, bad scale) is
	// rejected as a client error at submission instead of failing — or
	// panicking — deep inside a run.
	CheckSpec func(JobSpec) error
}

// ErrClosed reports an operation on a closed service.
var ErrClosed = errors.New("service: closed")

// ErrNotFound reports an unknown job ID.
var ErrNotFound = errors.New("service: job not found")

// Service is the daemon core: a job registry and queue in front of the
// runner pool, an artifact store, and per-job journals. Create one with
// Open, serve it with Handler, stop it with Close.
type Service struct {
	opts  Options
	store *Store
	log   *slog.Logger
	// reg carries service-level series (jobs accepted/done, runs
	// executed/resumed) plus the wall-clock HTTP and runtime series; per-job
	// series live on each job's registry and are merged into the /metrics
	// aggregate at scrape time.
	reg *metrics.Registry
	// runtime samples Go runtime telemetry (heap, GC pauses, goroutines,
	// uptime) into reg at scrape time.
	runtime *metrics.RuntimeSampler
	// ready flips true once journal replay and the store index load are
	// done, and false when Close begins — the /readyz signal.
	ready atomic.Bool

	baseCtx   context.Context
	cancelAll context.CancelFunc
	queue     chan *Job
	wg        sync.WaitGroup

	mu     sync.Mutex
	jobs   map[string]*Job
	order  []string
	closed bool
}

// Job is one submitted job's runtime state. All fields are accessed through
// methods; the HTTP layer serves Status() snapshots.
type Job struct {
	ID   string
	Spec JobSpec

	reg *metrics.Registry
	jr  *journal
	// log is the job-scoped structured logger: every record goes to the
	// service's output handler (tagged job_id/spec_digest) and into the
	// job's flight-recorder ring.
	log    *slog.Logger
	flight *flightRecorder
	// tl records the job's wall-clock lifecycle spans; the rendered Chrome
	// trace is served at /v1/jobs/{id}/timeline and persisted to the store
	// when the job settles.
	tl *timeline

	mu        sync.Mutex
	state     State
	rev       int64
	changed   chan struct{}
	errMsg    string
	artifacts []Artifact
	// completed maps run index -> result digest, restored from the journal
	// at recovery time; the executor skips these runs.
	completed map[int]string
	total     int
	done      int
	executed  int
	resumed   int
	pool      *runner.Pool
	cancelRun context.CancelFunc
	userStop  bool
	created   time.Time
	started   time.Time
	finished  time.Time
	// timelineDigest addresses the persisted wall-clock trace once the job
	// is terminal (restored from the journal for recovered jobs).
	timelineDigest string
}

func newJob(id string, spec JobSpec, jr *journal, logger *slog.Logger, flightCap int) *Job {
	created := time.Now()
	flight := newFlightRecorder(flightCap)
	return &Job{
		ID:   id,
		Spec: spec,
		reg:  metrics.NewRegistry(),
		jr:   jr,
		log: slog.New(teeHandler{a: logger.Handler(), b: &ringHandler{rec: flight}}).
			With("job_id", id, "spec_digest", spec.Digest()),
		flight:    flight,
		tl:        newTimeline(created),
		state:     StateQueued,
		changed:   make(chan struct{}),
		completed: make(map[int]string),
		total:     len(spec.Points()),
		created:   created,
	}
}

// Registry returns the job's metrics registry (the /v1/jobs/{id}/metrics
// source). Safe to scrape while the job runs.
func (j *Job) Registry() *metrics.Registry { return j.reg }

// Events returns the job's flight-recorder contents oldest-first plus the
// count of evicted events — the /v1/jobs/{id}/events payload.
func (j *Job) Events() (events []Event, dropped uint64) {
	return j.flight.Events(), j.flight.Dropped()
}

// TimelineDigest returns the store digest of the persisted wall-clock
// trace ("" while the job is live or when none was persisted).
func (j *Job) TimelineDigest() string {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.timelineDigest
}

// RenderTimeline renders the job's wall-clock spans recorded so far as
// Chrome trace_event JSON — the live view behind /v1/jobs/{id}/timeline.
func (j *Job) RenderTimeline() []byte { return j.tl.render() }

// notifyLocked bumps the revision and wakes every waiter. Callers hold j.mu.
func (j *Job) notifyLocked() {
	j.rev++
	close(j.changed)
	j.changed = make(chan struct{})
}

// Status snapshots the job for the API.
func (j *Job) Status() Status {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := Status{
		ID:    j.ID,
		Spec:  j.Spec,
		State: j.state,
		Rev:   j.rev,
		Progress: ProgressInfo{
			Done:     j.done,
			Total:    j.total,
			Executed: j.executed,
			Resumed:  j.resumed,
		},
		Artifacts: append([]Artifact(nil), j.artifacts...),
		Timeline:  j.timelineDigest,
		Error:     j.errMsg,
		Created:   stamp(j.created),
		Started:   stamp(j.started),
		Finished:  stamp(j.finished),
	}
	if j.pool != nil && j.state == StateRunning {
		ps := j.pool.Snapshot()
		st.Progress.Queued = ps.Queued
		st.Progress.Inflight = ps.Inflight
	}
	return st
}

// Wait blocks until the job's revision exceeds since or ctx fires, then
// returns the current status — the long-poll primitive.
func (j *Job) Wait(ctx context.Context, since int64) Status {
	for {
		j.mu.Lock()
		if j.rev > since {
			j.mu.Unlock()
			return j.Status()
		}
		ch := j.changed
		j.mu.Unlock()
		select {
		case <-ch:
		case <-ctx.Done():
			return j.Status()
		}
	}
}

// Changed returns a channel closed at the next status change after rev,
// plus the current revision — the SSE primitive.
func (j *Job) Changed() (<-chan struct{}, int64) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.changed, j.rev
}

// Open opens (creating if needed) the service state under opts.Dir,
// recovers journaled jobs — interrupted jobs re-enqueue with their
// completed runs marked resumable — and starts the dispatcher.
func Open(opts Options) (*Service, error) {
	if opts.Run == nil {
		return nil, fmt.Errorf("service: Options.Run is required")
	}
	if opts.Dir == "" {
		return nil, fmt.Errorf("service: Options.Dir is required")
	}
	if opts.JobWorkers <= 0 {
		opts.JobWorkers = 1
	}
	if opts.QueueDepth <= 0 {
		opts.QueueDepth = 1024
	}
	if opts.Logger == nil {
		opts.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	store, err := OpenStore(opts.Dir+"/artifacts", opts.Logger)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Service{
		opts:      opts,
		store:     store,
		log:       opts.Logger,
		reg:       metrics.NewRegistry(),
		runtime:   metrics.NewRuntimeSampler(),
		baseCtx:   ctx,
		cancelAll: cancel,
		queue:     make(chan *Job, opts.QueueDepth),
		jobs:      make(map[string]*Job),
	}
	if err := s.recover(); err != nil {
		cancel()
		return nil, err
	}
	s.wg.Add(opts.JobWorkers)
	for w := 0; w < opts.JobWorkers; w++ {
		go s.dispatch()
	}
	s.ready.Store(true)
	s.log.Info("service open", "dir", opts.Dir, "jobs", len(s.jobs),
		"store_objects", store.Len(), "job_workers", opts.JobWorkers)
	return s, nil
}

// Ready reports whether the service finished journal replay and loaded the
// store index, and has not begun shutting down — the /readyz signal, as
// opposed to /healthz liveness.
func (s *Service) Ready() bool { return s.ready.Load() }

// recover replays every journal under the state dir: terminal jobs are
// re-registered as completed history, interrupted jobs re-enqueue ordered
// by acceptance time with their journaled runs marked resumable.
func (s *Service) recover() error {
	states, err := scanJournals(s.opts.Dir)
	if err != nil {
		return err
	}
	ordered := make([]journalState, 0, len(states))
	for _, st := range states {
		ordered = append(ordered, st)
	}
	sort.Slice(ordered, func(a, b int) bool {
		if ordered[a].accepted != ordered[b].accepted {
			return ordered[a].accepted < ordered[b].accepted
		}
		return ordered[a].id < ordered[b].id
	})
	corrupt := s.reg.Counter("service.journal_corrupt_lines")
	for _, st := range ordered {
		for _, line := range st.corrupt {
			s.log.Warn("skipping unparseable journal line", "job_id", st.id, "line", line)
		}
		corrupt.Add(uint64(len(st.corrupt)))
		if got := st.spec.ID(); got != st.id {
			s.log.Warn("skipping job dir: spec hash mismatch", "job_id", st.id, "hashed", got)
			continue
		}
		if st.terminal != "" {
			j := newJob(st.id, st.spec, nil, s.opts.Logger, s.opts.FlightEvents)
			j.artifacts = st.artifacts
			j.errMsg = st.errMsg
			j.timelineDigest = st.timeline
			j.done = len(st.completed)
			for i, d := range st.completed {
				j.completed[i] = d
			}
			switch st.terminal {
			case evDone:
				j.state = StateDone
				j.done = j.total
			case evFailed:
				j.state = StateFailed
			case evCancelled:
				j.state = StateCancelled
			}
			s.jobs[st.id] = j
			s.order = append(s.order, st.id)
			continue
		}
		jr, err := openJournal(s.opts.Dir, st.id)
		if err != nil {
			return err
		}
		j := newJob(st.id, st.spec, jr, s.opts.Logger, s.opts.FlightEvents)
		for i, d := range st.completed {
			if s.store.Has(d) {
				j.completed[i] = d
			}
		}
		s.jobs[st.id] = j
		s.order = append(s.order, st.id)
		s.queue <- j
		s.reg.Counter("service.jobs_recovered").Inc()
		j.log.Info("job recovered; re-enqueued",
			"runs_journaled", len(j.completed), "runs_total", j.total)
	}
	return nil
}

// Store exposes the artifact store (read paths of the HTTP layer).
func (s *Service) Store() *Store { return s.store }

// Registry returns the service-level metrics registry.
func (s *Service) Registry() *metrics.Registry { return s.reg }

// Submit registers spec as a job and enqueues it. Identical specs are
// deduplicated: resubmitting returns the existing job with existed true.
func (s *Service) Submit(spec JobSpec) (j *Job, existed bool, err error) {
	if err := spec.Validate(); err != nil {
		return nil, false, err
	}
	if s.opts.CheckSpec != nil {
		if err := s.opts.CheckSpec(spec); err != nil {
			return nil, false, err
		}
	}
	id := spec.ID()
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, false, ErrClosed
	}
	if j, ok := s.jobs[id]; ok {
		s.mu.Unlock()
		s.reg.Counter("service.jobs_deduped").Inc()
		return j, true, nil
	}
	jr, err := openJournal(s.opts.Dir, id)
	if err != nil {
		s.mu.Unlock()
		return nil, false, err
	}
	j = newJob(id, spec, jr, s.opts.Logger, s.opts.FlightEvents)
	select {
	case s.queue <- j:
	default:
		s.mu.Unlock()
		jr.close()
		return nil, false, fmt.Errorf("service: job queue full")
	}
	s.jobs[id] = j
	s.order = append(s.order, id)
	s.mu.Unlock()
	if err := jr.append(journalEntry{T: evAccepted, Spec: &spec}); err != nil {
		return nil, false, err
	}
	s.reg.Counter("service.jobs_accepted").Inc()
	j.tl.instant("job", "accepted", j.created)
	j.log.Info("job accepted", "kind", spec.Kind, "runs", j.total)
	return j, false, nil
}

// Get returns the job with the given ID.
func (s *Service) Get(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// Jobs lists every known job in submission order.
func (s *Service) Jobs() []*Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*Job, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, s.jobs[id])
	}
	return out
}

// Cancel cancels a queued or running job. Terminal jobs return an error.
func (s *Service) Cancel(id string) error {
	j, ok := s.Get(id)
	if !ok {
		return ErrNotFound
	}
	j.mu.Lock()
	if j.state.Terminal() {
		j.mu.Unlock()
		return fmt.Errorf("service: job %s already %s", id, j.state)
	}
	j.userStop = true
	cancel := j.cancelRun
	queued := j.state == StateQueued
	if queued {
		// Never picked up: settle it here; the dispatcher will skip it.
		j.state = StateCancelled
		j.finished = time.Now()
		j.notifyLocked()
	}
	j.mu.Unlock()
	if queued {
		j.tl.instant("job", "cancelled", time.Now())
		tlDigest := s.persistTimeline(j)
		if j.jr != nil {
			if err := j.jr.append(journalEntry{T: evCancelled, Timeline: tlDigest}); err != nil {
				return err
			}
		}
		j.mu.Lock()
		j.timelineDigest = tlDigest
		j.mu.Unlock()
		s.reg.Counter("service.jobs_cancelled").Inc()
		j.log.Info("job cancelled while queued")
		return nil
	}
	j.log.Info("cancelling running job")
	if cancel != nil {
		cancel()
	}
	return nil
}

// Close stops the service: no new jobs are accepted, dispatchers stop, and
// running jobs are interrupted without a terminal journal entry — a later
// Open resumes them from their last completed run. It waits for in-flight
// work to unwind.
func (s *Service) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.mu.Unlock()
	s.ready.Store(false) // /readyz drains before in-flight work unwinds
	s.log.Info("service closing")
	s.cancelAll()
	s.wg.Wait()
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, j := range s.jobs {
		if j.jr != nil {
			j.jr.close()
		}
	}
	return nil
}

// dispatch is one job-worker loop.
func (s *Service) dispatch() {
	defer s.wg.Done()
	for {
		select {
		case <-s.baseCtx.Done():
			return
		case j := <-s.queue:
			j.mu.Lock()
			skip := j.state != StateQueued // cancelled while queued
			j.mu.Unlock()
			if !skip {
				s.runJob(j)
			}
		}
	}
}

// runRec is one run's finished record: its canonical artifact bytes and the
// parsed result the assembly step reads.
type runRec struct {
	data []byte
	res  wafer.Result
}

// marshalResult renders a run result into its canonical artifact bytes.
// The metrics snapshot is excluded — metric values are live observability,
// not part of the byte contract (matching the golden-digest convention) —
// so a resumed run reproduces the exact bytes of an uninterrupted one.
func marshalResult(res wafer.Result) ([]byte, error) {
	res.Metrics = nil
	return json.MarshalIndent(res, "", " ")
}

// runJob executes one job to a terminal state (or leaves it resumable when
// the service itself is shutting down).
func (s *Service) runJob(j *Job) {
	ctx, cancel := context.WithCancel(s.baseCtx)
	defer cancel()

	points := j.Spec.Points()
	recs := make([]runRec, len(points))

	workers := j.Spec.Workers
	if workers == 0 {
		workers = s.opts.RunWorkers
		if workers == 0 {
			workers = 1
		}
	}
	pool := &runner.Pool{Workers: workers, Metrics: j.reg}
	pool.Progress = func(done, total int, out runner.Outcome) {
		// Per-run wall-clock span, off the pool's per-task accounting.
		// Cancellation-skipped tasks carry no start time and record nothing.
		if !out.Start.IsZero() && out.Index < len(points) {
			p := points[out.Index]
			j.tl.span("runs", fmt.Sprintf("run %d %s/%s", p.Index, p.Scheme, p.Benchmark),
				out.Start, out.Start.Add(out.Wall), trace.KV{K: "run_id", V: uint64(p.Index)})
		}
		j.mu.Lock()
		j.done = done
		j.notifyLocked()
		j.mu.Unlock()
	}

	j.mu.Lock()
	if j.state != StateQueued { // raced with Cancel
		j.mu.Unlock()
		return
	}
	j.state = StateRunning
	j.started = time.Now()
	j.pool = pool
	j.cancelRun = cancel
	j.done = 0
	j.notifyLocked()
	j.mu.Unlock()
	j.tl.span("job", "queued", j.created, j.started)
	j.log.Info("job running", "workers", workers, "runs", len(points),
		"resumable", len(j.completed))
	s.reg.Gauge("service.jobs_running").Add(1)
	defer s.reg.Gauge("service.jobs_running").Add(-1)

	tasks := make([]runner.Task, len(points))
	for i, p := range points {
		i, p := i, p
		tasks[i] = func(ctx context.Context) (wafer.Result, error) {
			return s.runPoint(ctx, j, p, recs)
		}
	}
	outs := pool.Run(ctx, tasks)
	j.tl.span("job", "running", j.started, time.Now())

	if ctx.Err() != nil {
		j.mu.Lock()
		stopped := j.userStop
		j.mu.Unlock()
		if !stopped {
			// Service shutdown: leave the journal without a terminal entry so
			// the next Open resumes from the completed runs.
			j.log.Info("job interrupted; resumable on next start", "reason", ctx.Err().Error())
			return
		}
		s.settleJob(j, StateCancelled, evCancelled, nil, "")
		return
	}
	for _, out := range outs {
		if out.Err != nil {
			msg := fmt.Sprintf("run %d (%s/%s): %v",
				out.Index, points[out.Index].Scheme, points[out.Index].Benchmark, out.Err)
			s.settleJob(j, StateFailed, evFailed, nil, msg)
			return
		}
	}

	awStart := time.Now()
	arts, err := s.storeArtifacts(j.Spec, points, recs)
	j.tl.span("job", "artifact-write", awStart, time.Now())
	if err != nil {
		s.settleJob(j, StateFailed, evFailed, nil, err.Error())
		return
	}
	s.settleJob(j, StateDone, evDone, arts, "")
}

// settleJob drives a job to its terminal state: terminal timeline instant,
// wall-clock trace persisted to the store, terminal journal entry, metrics,
// logs, and the Status transition.
func (s *Service) settleJob(j *Job, state State, ev string, arts []Artifact, errMsg string) {
	j.tl.instant("job", string(state), time.Now())
	tlDigest := s.persistTimeline(j)
	entry := journalEntry{T: ev, Artifacts: arts, Error: errMsg, Timeline: tlDigest}
	if err := j.jr.append(entry); err != nil {
		j.log.Error("journal append failed", "entry", ev, "err", err.Error())
	}
	s.reg.Counter("service.jobs_" + ev).Inc()
	switch state {
	case StateDone:
		j.log.Info("job done", "artifacts", len(arts),
			"wall_ms", time.Since(j.started).Milliseconds())
	case StateFailed:
		j.log.Error("job failed", "err", errMsg)
	case StateCancelled:
		j.log.Info("job cancelled")
	}
	j.settle(state, arts, errMsg, tlDigest)
}

// persistTimeline renders the job's wall-clock trace and stores it
// content-addressed, returning its digest ("" on failure — the timeline is
// observability, never worth failing a job over).
func (s *Service) persistTimeline(j *Job) string {
	digest, _, err := s.store.Put(j.tl.render())
	if err != nil {
		j.log.Warn("timeline persist failed", "err", err.Error())
		return ""
	}
	return digest
}

// runPoint executes (or resumes) one run and records its canonical bytes.
func (s *Service) runPoint(ctx context.Context, j *Job, p Point, recs []runRec) (wafer.Result, error) {
	rlog := j.log.With("run_id", p.Index, "scheme", p.Scheme, "benchmark", p.Benchmark)
	if digest, ok := j.completed[p.Index]; ok {
		data, err := s.store.Get(digest)
		if err == nil {
			var res wafer.Result
			if uerr := json.Unmarshal(data, &res); uerr == nil {
				recs[p.Index] = runRec{data: data, res: res}
				j.mu.Lock()
				j.resumed++
				j.mu.Unlock()
				s.reg.Counter("service.runs_resumed").Inc()
				rlog.Info("run resumed from store", "digest", digest)
				return res, nil
			}
		}
		// Missing or unreadable object: re-execute the run.
		rlog.Warn("stored result unavailable; re-executing", "digest", digest)
	}
	var reg *metrics.Registry
	if j.Spec.Metrics {
		reg = metrics.NewRegistry()
	}
	start := time.Now()
	res, err := s.opts.Run(ctx, j.Spec, p, reg)
	if err != nil {
		rlog.Error("run failed", "err", err.Error(),
			"wall_ms", time.Since(start).Milliseconds())
		return res, err
	}
	data, err := marshalResult(res)
	if err != nil {
		return res, fmt.Errorf("service: marshal result: %w", err)
	}
	digest, _, err := s.store.Put(data)
	if err != nil {
		return res, err
	}
	if err := j.jr.append(journalEntry{T: evRun, Index: p.Index, Digest: digest}); err != nil {
		return res, err
	}
	recs[p.Index] = runRec{data: data, res: res}
	j.mu.Lock()
	j.executed++
	j.mu.Unlock()
	s.reg.Counter("service.runs_executed").Inc()
	rlog.Info("run executed", "digest", digest,
		"wall_ms", time.Since(start).Milliseconds(), "cycles", uint64(res.Cycles))
	if reg != nil {
		j.reg.Merge(reg.Snapshot())
	}
	return res, nil
}

// settle moves the job to a terminal state.
func (j *Job) settle(state State, arts []Artifact, errMsg, tlDigest string) {
	j.mu.Lock()
	j.state = state
	j.artifacts = arts
	j.errMsg = errMsg
	j.timelineDigest = tlDigest
	j.finished = time.Now()
	j.pool = nil
	j.cancelRun = nil
	j.notifyLocked()
	j.mu.Unlock()
}

// storeArtifacts assembles the job's artifacts and puts each in the store.
// Per-run artifacts were already stored during execution; re-putting them
// deduplicates to the same digest.
func (s *Service) storeArtifacts(spec JobSpec, points []Point, recs []runRec) ([]Artifact, error) {
	blobs, err := AssembleArtifacts(spec, points, recs)
	if err != nil {
		return nil, err
	}
	arts := make([]Artifact, len(blobs))
	for i, b := range blobs {
		digest, _, err := s.store.Put(b.Data)
		if err != nil {
			return nil, err
		}
		arts[i] = Artifact{Name: b.Name, Digest: digest, Size: int64(len(b.Data))}
	}
	return arts, nil
}

// AggregateSnapshot merges the service registry with every job's registry —
// the /metrics view: one process-wide aggregate across all jobs — plus
// store gauges and Go runtime telemetry sampled at scrape time. The
// runtime series land in the service registry so GC-pause observations
// accumulate across scrapes instead of double-counting.
func (s *Service) AggregateSnapshot() *metrics.Snapshot {
	s.runtime.Sample(s.reg)
	agg := metrics.NewRegistry()
	agg.Merge(s.reg.Snapshot())
	for _, j := range s.Jobs() {
		agg.Merge(j.reg.Snapshot())
	}
	agg.Gauge("store.objects").Set(int64(s.store.Len()))
	agg.Gauge("store.dedup_hits").Set(int64(s.store.DedupHits()))
	return agg.Snapshot()
}
