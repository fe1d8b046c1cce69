package service

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"io/fs"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hdpat/internal/attr"
	"hdpat/internal/metrics"
	"hdpat/internal/sim"
	"hdpat/internal/wafer"
)

// fakeRun is a deterministic stand-in simulator: the result depends only on
// (scheme, benchmark, spec seed/budget), like the real engine. Baselines
// run longer than schemes so speedups come out above 1.
func fakeRun(ctx context.Context, spec JobSpec, p Point, reg *metrics.Registry) (wafer.Result, error) {
	if err := ctx.Err(); err != nil {
		return wafer.Result{}, err
	}
	h := fnv.New64a()
	fmt.Fprintf(h, "%s/%s/%d/%d", p.Scheme, p.Benchmark, spec.Seed, spec.OpsBudget)
	cycles := 2000 + h.Sum64()%1000
	if p.Scheme == "baseline" {
		cycles += 5000
	}
	res := wafer.Result{
		Scheme:    p.Scheme,
		Benchmark: p.Benchmark,
		Cycles:    sim.VTime(cycles),
		TotalOps:  cycles / 10,
		Events:    cycles * 3,
	}
	if spec.Attribution {
		res.Breakdown = &attr.Breakdown{
			Scheme:    p.Scheme,
			Benchmark: p.Benchmark,
			Cycles:    cycles,
			Requests:  cycles / 100,
			Sources:   map[string]uint64{"iommu": cycles / 200, "peer": cycles / 200},
		}
	}
	if reg != nil {
		reg.Counter("fake.runs").Inc()
		reg.Counter("fake.cycles").Add(cycles)
	}
	return res, nil
}

// open starts a service over fakeRun in dir.
func open(t *testing.T, dir string, run RunFunc) *Service {
	t.Helper()
	if run == nil {
		run = fakeRun
	}
	svc, err := Open(Options{Dir: dir, Run: run})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return svc
}

// waitState polls until the job reaches a terminal state.
func waitState(t *testing.T, j *Job, want State) Status {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	since := int64(-1)
	for time.Now().Before(deadline) {
		ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
		st := j.Wait(ctx, since)
		cancel()
		since = st.Rev
		if st.State == want {
			return st
		}
		if st.State.Terminal() {
			t.Fatalf("job %s settled %s (err %q), want %s", st.ID, st.State, st.Error, want)
		}
	}
	t.Fatalf("job %s never reached %s", j.ID, want)
	return Status{}
}

func sweepSpec() JobSpec {
	return JobSpec{
		Kind:        KindSweep,
		Schemes:     []string{"hdpat", "transfw"},
		Benchmarks:  []string{"FIR", "SPMV", "PR"},
		OpsBudget:   8,
		Seed:        1,
		Attribution: true,
	}
}

func TestSpecValidateAndID(t *testing.T) {
	bad := []JobSpec{
		{},
		{Kind: "nope"},
		{Kind: KindSimulate},
		{Kind: KindCompare, Scheme: "hdpat"},
		{Kind: KindSweep, Schemes: []string{"hdpat"}},
		{Kind: KindSweep, Schemes: []string{"x"}, Benchmarks: []string{"y"}, Scheme: "z"},
		{Kind: KindCompare, Scheme: "hdpat", Benchmark: "FIR", OpsBudget: -1},
		{Kind: KindSimulate, Scheme: "hdpat", Benchmark: "FIR", Routing: "torus"},
	}
	for i, spec := range bad {
		if err := spec.Validate(); err == nil {
			t.Errorf("spec %d (%+v) validated", i, spec)
		}
	}
	good := JobSpec{Kind: KindSimulate, Scheme: "hdpat", Benchmark: "FIR", Routing: "deflect"}
	if err := good.Validate(); err != nil {
		t.Errorf("deflect routing spec rejected: %v", err)
	}
	a := sweepSpec()
	b := sweepSpec()
	if a.ID() != b.ID() {
		t.Errorf("identical specs hash differently: %s vs %s", a.ID(), b.ID())
	}
	b.Seed = 2
	if a.ID() == b.ID() {
		t.Errorf("different seeds share ID %s", a.ID())
	}
}

func TestPointsLayout(t *testing.T) {
	pts := sweepSpec().Points()
	// Benchmark-major, baseline leading each group: 3 benchmarks x (1+2).
	if len(pts) != 9 {
		t.Fatalf("got %d points, want 9", len(pts))
	}
	wantScheme := []string{"baseline", "hdpat", "transfw"}
	for i, p := range pts {
		if p.Index != i {
			t.Errorf("point %d has index %d", i, p.Index)
		}
		if p.Scheme != wantScheme[i%3] {
			t.Errorf("point %d scheme %s, want %s", i, p.Scheme, wantScheme[i%3])
		}
	}
	if got := (JobSpec{Kind: KindCompare, Scheme: "hdpat", Benchmark: "FIR"}).Points(); len(got) != 2 ||
		got[0].Scheme != "baseline" || got[1].Scheme != "hdpat" {
		t.Errorf("compare points = %+v", got)
	}
}

func TestStorePutGetDedup(t *testing.T) {
	st, err := OpenStore(t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	d1, existed, err := st.Put([]byte("hello"))
	if err != nil || existed {
		t.Fatalf("first put: digest %s existed %v err %v", d1, existed, err)
	}
	d2, existed, err := st.Put([]byte("hello"))
	if err != nil || !existed || d1 != d2 {
		t.Fatalf("second put: digest %s existed %v err %v", d2, existed, err)
	}
	if st.DedupHits() != 1 || st.Len() != 1 {
		t.Errorf("dedup %d len %d", st.DedupHits(), st.Len())
	}
	data, err := st.Get(d1)
	if err != nil || string(data) != "hello" {
		t.Fatalf("get: %q %v", data, err)
	}
	if _, err := st.Get("../../etc/passwd"); err == nil {
		t.Error("traversal digest accepted")
	}
	if _, err := st.Get("0000000000000000000000000000000000000000000000000000000000000000"); err == nil {
		t.Error("missing digest returned data")
	}
}

func TestStoreIndexRebuild(t *testing.T) {
	dir := t.TempDir()
	st, _ := OpenStore(dir, nil)
	d, _, err := st.Put([]byte("payload"))
	if err != nil {
		t.Fatal(err)
	}
	// Reopen without the index file: the object tree is authoritative.
	if err := os.Remove(filepath.Join(dir, "index.json")); err != nil {
		t.Fatal(err)
	}
	st2, err := OpenStore(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !st2.Has(d) {
		t.Errorf("rebuilt index lost %s", d)
	}
}

// flipFirstDigit rewrites the first ASCII digit in the file at path to a
// different digit: the bytes stop hashing to their digest but still parse
// as the same JSON shape, so only a hash check can notice.
func flipFirstDigit(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	i := bytes.IndexAny(data, "0123456789")
	if i < 0 {
		t.Fatalf("%s holds no digit to flip", path)
	}
	data[i] = '0' + (data[i]-'0'+1)%10
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// A flipped byte is never served: Get re-hashes, moves the object aside,
// drops it from the index and fails with ErrCorrupt; the next Put of the
// same content writes it afresh.
func TestStoreGetRejectsFlippedByte(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStore(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	d, _, err := st.Put([]byte(`{"cycles": 12345}`))
	if err != nil {
		t.Fatal(err)
	}
	flipFirstDigit(t, st.objectPath(d))
	if data, err := st.Get(d); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("corrupt get = %q, %v; want ErrCorrupt", data, err)
	}
	if st.Has(d) {
		t.Error("corrupt object still indexed")
	}
	if _, err := os.Stat(st.objectPath(d)); !os.IsNotExist(err) {
		t.Errorf("corrupt object still in the object tree: %v", err)
	}
	if aside, _ := filepath.Glob(filepath.Join(dir, "quarantine", d+".*")); len(aside) != 1 {
		t.Errorf("quarantine holds %v, want the one corrupt object", aside)
	}
	if _, err := st.Get(d); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("get after quarantine: %v, want not-exist", err)
	}
	// A reopened store does not resurrect it either.
	st2, err := OpenStore(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st2.Has(d) {
		t.Error("reopened store re-indexed the quarantined object")
	}
	if _, existed, err := st2.Put([]byte(`{"cycles": 12345}`)); err != nil || existed {
		t.Fatalf("re-put: existed %v err %v", existed, err)
	}
	if data, err := st2.Get(d); err != nil || string(data) != `{"cycles": 12345}` {
		t.Errorf("get after re-put: %q %v", data, err)
	}
}

// Readers racing a corrupt object and a writer restoring it: every Get
// either fails or returns bytes that hash to the digest, and once the last
// Put returns the object is whole.
func TestStoreConcurrentGetNeverServesCorrupt(t *testing.T) {
	st, err := OpenStore(t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte(`{"cycles": 987654}`)
	d, _, err := st.Put(payload)
	if err != nil {
		t.Fatal(err)
	}
	flipFirstDigit(t, st.objectPath(d))
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if data, err := st.Get(d); err == nil && !bytes.Equal(data, payload) {
					t.Errorf("served %q for %s", data, d)
					return
				}
			}
		}()
	}
	for i := 0; i < 20; i++ {
		if _, _, err := st.Put(payload); err != nil {
			t.Error(err)
		}
	}
	wg.Wait()
	if _, _, err := st.Put(payload); err != nil {
		t.Fatal(err)
	}
	if data, err := st.Get(d); err != nil || !bytes.Equal(data, payload) {
		t.Errorf("after final put: %q %v", data, err)
	}
}

// The dedup check looks at the object file, not just the index: a Put whose
// object was deleted behind the store's back rewrites it.
func TestStorePutRewritesMissingObject(t *testing.T) {
	st, err := OpenStore(t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	d, _, err := st.Put([]byte("payload"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(st.objectPath(d)); err != nil {
		t.Fatal(err)
	}
	d2, existed, err := st.Put([]byte("payload"))
	if err != nil || existed || d2 != d {
		t.Fatalf("put over missing object: digest %s existed %v err %v", d2, existed, err)
	}
	if st.DedupHits() != 0 {
		t.Errorf("rewrite counted as dedup hit (%d)", st.DedupHits())
	}
	if data, err := st.Get(d); err != nil || string(data) != "payload" {
		t.Errorf("get after rewrite: %q %v", data, err)
	}
}

func TestCompareJobLifecycleAndDedup(t *testing.T) {
	dir := t.TempDir()
	svc := open(t, dir, nil)
	defer svc.Close()

	spec := JobSpec{Kind: KindCompare, Scheme: "hdpat", Benchmark: "FIR", Seed: 3, OpsBudget: 8}
	j, existed, err := svc.Submit(spec)
	if err != nil || existed {
		t.Fatalf("submit: existed %v err %v", existed, err)
	}
	st := waitState(t, j, StateDone)
	if len(st.Artifacts) != 3 { // run-0, run-1, comparisons.json
		t.Fatalf("artifacts = %+v", st.Artifacts)
	}
	if st.Progress.Done != 2 || st.Progress.Executed != 2 || st.Progress.Resumed != 0 {
		t.Errorf("progress = %+v", st.Progress)
	}
	for _, a := range st.Artifacts {
		data, err := svc.Store().Get(a.Digest)
		if err != nil || int64(len(data)) != a.Size {
			t.Errorf("artifact %s: %d bytes err %v, want %d", a.Name, len(data), err, a.Size)
		}
	}

	// Resubmitting the identical spec joins the existing job.
	j2, existed, err := svc.Submit(spec)
	if err != nil || !existed || j2 != j {
		t.Fatalf("resubmit: existed %v err %v", existed, err)
	}
	if svc.Registry().Counter("service.jobs_deduped").Value() != 1 {
		t.Error("dedup counter not bumped")
	}
}

func TestArtifactDedupAcrossJobs(t *testing.T) {
	svc := open(t, t.TempDir(), nil)
	defer svc.Close()

	// A simulate job and a compare job share the (hdpat, FIR) cell at the
	// same budget/seed: the run artifact content is identical, so the store
	// keeps one object.
	simSpec := JobSpec{Kind: KindSimulate, Scheme: "hdpat", Benchmark: "FIR", Seed: 3, OpsBudget: 8}
	cmp := JobSpec{Kind: KindCompare, Scheme: "hdpat", Benchmark: "FIR", Seed: 3, OpsBudget: 8}
	js, _, err := svc.Submit(simSpec)
	if err != nil {
		t.Fatal(err)
	}
	stSim := waitState(t, js, StateDone)
	jc, _, err := svc.Submit(cmp)
	if err != nil {
		t.Fatal(err)
	}
	stCmp := waitState(t, jc, StateDone)

	simDigest := stSim.Artifacts[0].Digest
	var cmpDigest string
	for _, a := range stCmp.Artifacts {
		if a.Name == "run-1-hdpat-FIR.json" {
			cmpDigest = a.Digest
		}
	}
	if simDigest == "" || simDigest != cmpDigest {
		t.Fatalf("identical cells not deduplicated: %s vs %s", simDigest, cmpDigest)
	}
	if svc.Store().DedupHits() == 0 {
		t.Error("store recorded no dedup hits")
	}
}

func TestCancelQueuedAndRunning(t *testing.T) {
	block := make(chan struct{})
	var started sync.Once
	startedCh := make(chan struct{})
	run := func(ctx context.Context, spec JobSpec, p Point, reg *metrics.Registry) (wafer.Result, error) {
		started.Do(func() { close(startedCh) })
		select {
		case <-block:
		case <-ctx.Done():
			return wafer.Result{}, ctx.Err()
		}
		return fakeRun(ctx, spec, p, reg)
	}
	svc := open(t, t.TempDir(), run)
	defer svc.Close()

	// First job occupies the single dispatcher slot...
	j1, _, err := svc.Submit(JobSpec{Kind: KindSimulate, Scheme: "hdpat", Benchmark: "FIR"})
	if err != nil {
		t.Fatal(err)
	}
	<-startedCh
	// ...so the second stays queued and cancels instantly.
	j2, _, err := svc.Submit(JobSpec{Kind: KindSimulate, Scheme: "hdpat", Benchmark: "PR"})
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.Cancel(j2.ID); err != nil {
		t.Fatalf("cancel queued: %v", err)
	}
	if st := j2.Status(); st.State != StateCancelled {
		t.Fatalf("queued job state %s after cancel", st.State)
	}

	// Cancelling the running job interrupts its context.
	if err := svc.Cancel(j1.ID); err != nil {
		t.Fatalf("cancel running: %v", err)
	}
	st := waitState(t, j1, StateCancelled)
	if st.State != StateCancelled {
		t.Fatalf("running job state %s", st.State)
	}
	// Terminal jobs refuse another cancel.
	if err := svc.Cancel(j1.ID); err == nil {
		t.Error("cancel of terminal job succeeded")
	}
	if err := svc.Cancel("nope"); err != ErrNotFound {
		t.Errorf("cancel unknown = %v", err)
	}
}

func TestRunErrorFailsJob(t *testing.T) {
	run := func(ctx context.Context, spec JobSpec, p Point, reg *metrics.Registry) (wafer.Result, error) {
		if p.Scheme == "hdpat" {
			return wafer.Result{}, fmt.Errorf("boom")
		}
		return fakeRun(ctx, spec, p, reg)
	}
	svc := open(t, t.TempDir(), run)
	defer svc.Close()
	j, _, err := svc.Submit(JobSpec{Kind: KindCompare, Scheme: "hdpat", Benchmark: "FIR"})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if st := j.Status(); st.State.Terminal() {
			if st.State != StateFailed || st.Error == "" {
				t.Fatalf("state %s err %q", st.State, st.Error)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job never settled")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestKillAndRestartResumesSweep is the acceptance scenario: a sweep
// interrupted mid-flight (daemon torn down without terminal journal
// entries) and resumed by a fresh service produces artifacts byte-identical
// (same SHA-256 set) to the same sweep run uninterrupted, and the
// already-completed runs are not re-executed.
// interruptSweep submits spec to a service in dir whose run function lets
// allow runs complete and blocks the next one, then tears the service down
// (the "kill"): the job's journal holds allow run entries and no terminal
// entry.
func interruptSweep(t *testing.T, dir string, spec JobSpec, allow int64) {
	t.Helper()
	var executed atomic.Int64
	blocked := make(chan struct{})
	var once sync.Once
	svc := open(t, dir, func(ctx context.Context, s JobSpec, p Point, reg *metrics.Registry) (wafer.Result, error) {
		if executed.Add(1) > allow {
			once.Do(func() { close(blocked) })
			<-ctx.Done()
			return wafer.Result{}, ctx.Err()
		}
		return fakeRun(ctx, s, p, reg)
	})
	if _, _, err := svc.Submit(spec); err != nil {
		t.Fatal(err)
	}
	select {
	case <-blocked:
	case <-time.After(10 * time.Second):
		t.Fatal("run function never reached the gate")
	}
	svc.Close() // kill: no terminal journal entry
}

func TestKillAndRestartResumesSweep(t *testing.T) {
	spec := sweepSpec()
	total := len(spec.Points())
	const allowBeforeKill = 4

	// Control: the sweep uninterrupted, in its own state dir.
	ctrl := open(t, t.TempDir(), nil)
	jc, _, err := ctrl.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	want := waitState(t, jc, StateDone)
	ctrl.Close()

	// Interrupted: the run function blocks after allowBeforeKill runs, then
	// the service is torn down (the "kill").
	dir := t.TempDir()
	interruptSweep(t, dir, spec, allowBeforeKill)

	// Restart: a fresh service over the same dir resumes the sweep.
	var executed2 atomic.Int64
	var executedPoints sync.Map
	counting := func(ctx context.Context, s JobSpec, p Point, reg *metrics.Registry) (wafer.Result, error) {
		executed2.Add(1)
		if _, dup := executedPoints.LoadOrStore(p.Index, true); dup {
			t.Errorf("run %d executed twice after restart", p.Index)
		}
		return fakeRun(ctx, s, p, reg)
	}
	svc2 := open(t, dir, counting)
	defer svc2.Close()
	j, ok := svc2.Get(spec.ID())
	if !ok {
		t.Fatal("recovered service lost the job")
	}
	got := waitState(t, j, StateDone)

	// Already-completed runs were restored, not re-executed.
	if n := int(executed2.Load()); n != total-allowBeforeKill {
		t.Errorf("restarted daemon executed %d runs, want %d", n, total-allowBeforeKill)
	}
	if got.Progress.Resumed != allowBeforeKill || got.Progress.Executed != total-allowBeforeKill {
		t.Errorf("resume accounting = %+v", got.Progress)
	}
	if v := svc2.Registry().Counter("service.runs_resumed").Value(); v != allowBeforeKill {
		t.Errorf("runs_resumed = %d", v)
	}

	// Golden-digest equality: same artifact names mapping to the same
	// SHA-256 digests as the uninterrupted control sweep.
	if len(got.Artifacts) != len(want.Artifacts) {
		t.Fatalf("artifact count %d vs control %d", len(got.Artifacts), len(want.Artifacts))
	}
	for i, a := range got.Artifacts {
		w := want.Artifacts[i]
		if a.Name != w.Name || a.Digest != w.Digest {
			t.Errorf("artifact %d: %s %s, control %s %s", i, a.Name, a.Digest, w.Name, w.Digest)
		}
	}
}

// A resumed job whose journaled run object was corrupted while the daemon
// was down re-executes that run, lands on the digest the uninterrupted
// sweep produced, and leaves a good object behind in the store.
func TestResumeRerunsCorruptRunObject(t *testing.T) {
	spec := sweepSpec()
	const allowBeforeKill = 2

	ctrl := open(t, t.TempDir(), nil)
	jc, _, err := ctrl.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	want := waitState(t, jc, StateDone)
	ctrl.Close()

	dir := t.TempDir()
	interruptSweep(t, dir, spec, allowBeforeKill)

	// Corrupt one journaled run's object while the daemon is down.
	js, err := readJournal(journalPath(jobDir(dir, spec.ID())))
	if err != nil {
		t.Fatal(err)
	}
	if len(js.completed) != allowBeforeKill {
		t.Fatalf("journal holds %d completed runs, want %d", len(js.completed), allowBeforeKill)
	}
	bad := -1
	for i := range js.completed {
		if bad < 0 || i < bad {
			bad = i
		}
	}
	digest := js.completed[bad]
	store, err := OpenStore(filepath.Join(dir, "artifacts"), nil)
	if err != nil {
		t.Fatal(err)
	}
	flipFirstDigit(t, store.objectPath(digest))

	var rerun atomic.Bool
	svc2 := open(t, dir, func(ctx context.Context, s JobSpec, p Point, reg *metrics.Registry) (wafer.Result, error) {
		if p.Index == bad {
			rerun.Store(true)
		}
		return fakeRun(ctx, s, p, reg)
	})
	defer svc2.Close()
	j, ok := svc2.Get(spec.ID())
	if !ok {
		t.Fatal("recovered service lost the job")
	}
	got := waitState(t, j, StateDone)
	if !rerun.Load() {
		t.Errorf("run %d resumed from a corrupt object instead of re-executing", bad)
	}
	if got.Progress.Resumed != allowBeforeKill-1 {
		t.Errorf("resumed %d runs, want %d", got.Progress.Resumed, allowBeforeKill-1)
	}
	if len(got.Artifacts) != len(want.Artifacts) {
		t.Fatalf("artifact count %d vs control %d", len(got.Artifacts), len(want.Artifacts))
	}
	for i, a := range got.Artifacts {
		if w := want.Artifacts[i]; a.Name != w.Name || a.Digest != w.Digest {
			t.Errorf("artifact %d: %s %s, control %s %s", i, a.Name, a.Digest, w.Name, w.Digest)
		}
	}
	if _, err := svc2.Store().Get(digest); err != nil {
		t.Errorf("re-executed run object not restored: %v", err)
	}
}

// A kill can leave a torn final journal line. Resume must trim it before
// appending, so every entry written after the restart replays and no line
// counts as corrupt.
func TestResumeAfterTornJournalTail(t *testing.T) {
	spec := sweepSpec()
	dir := t.TempDir()
	interruptSweep(t, dir, spec, 2)
	path := journalPath(jobDir(dir, spec.ID()))
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"t":"run","i":7,"dig`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	svc2 := open(t, dir, nil)
	j, ok := svc2.Get(spec.ID())
	if !ok {
		t.Fatal("recovered service lost the job")
	}
	waitState(t, j, StateDone)
	svc2.Close()

	js, err := readJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if js.terminal != evDone || len(js.completed) != len(spec.Points()) {
		t.Errorf("journal replays terminal %q and %d of %d runs", js.terminal, len(js.completed), len(spec.Points()))
	}
	svc3 := open(t, dir, nil)
	defer svc3.Close()
	if v := svc3.Registry().Counter("service.journal_corrupt_lines").Value(); v != 0 {
		t.Errorf("journal_corrupt_lines = %d, want 0", v)
	}
}

// trimTornTail drops a newline-less fragment, terminates a complete entry
// that only lost its newline, and leaves a whole journal alone.
func TestTrimTornTail(t *testing.T) {
	for _, tc := range []struct{ in, want string }{
		{"{\"t\":\"accepted\"}\n{\"t\":\"run\",\"i\":7,\"dig", "{\"t\":\"accepted\"}\n"},
		{"{\"t\":\"run\",\"i\":7", ""},
		{"{\"t\":\"accepted\"}\n{\"t\":\"run\"}", "{\"t\":\"accepted\"}\n{\"t\":\"run\"}\n"},
		{"{\"t\":\"accepted\"}\n", "{\"t\":\"accepted\"}\n"},
	} {
		path := filepath.Join(t.TempDir(), "journal.jsonl")
		if err := os.WriteFile(path, []byte(tc.in), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := trimTornTail(path); err != nil {
			t.Fatal(err)
		}
		if got, _ := os.ReadFile(path); string(got) != tc.want {
			t.Errorf("trimTornTail(%q) left %q, want %q", tc.in, got, tc.want)
		}
	}
	if err := trimTornTail(filepath.Join(t.TempDir(), "missing")); err != nil {
		t.Errorf("missing journal: %v", err)
	}
}

// An unparseable line in the middle of a journal is skipped and counted;
// the job still recovers and completes.
func TestRecoverCountsCorruptJournalLine(t *testing.T) {
	spec := sweepSpec()
	dir := t.TempDir()
	interruptSweep(t, dir, spec, 2)
	path := journalPath(jobDir(dir, spec.ID()))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	first := bytes.IndexByte(data, '\n') + 1 // after the accepted entry
	data = append(data[:first:first], append([]byte("not json\n"), data[first:]...)...)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	svc2 := open(t, dir, nil)
	defer svc2.Close()
	j, ok := svc2.Get(spec.ID())
	if !ok {
		t.Fatal("recovered service lost the job")
	}
	waitState(t, j, StateDone)
	if v := svc2.Registry().Counter("service.journal_corrupt_lines").Value(); v != 1 {
		t.Errorf("journal_corrupt_lines = %d, want 1", v)
	}
}

// TestRecoverTerminalJobs restarts over a dir holding a finished job: it
// reloads as history, not as queued work.
func TestRecoverTerminalJobs(t *testing.T) {
	dir := t.TempDir()
	spec := JobSpec{Kind: KindCompare, Scheme: "hdpat", Benchmark: "FIR", Seed: 9}
	svc1 := open(t, dir, nil)
	j, _, err := svc1.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	want := waitState(t, j, StateDone)
	svc1.Close()

	var executed atomic.Int64
	svc2 := open(t, dir, func(ctx context.Context, s JobSpec, p Point, reg *metrics.Registry) (wafer.Result, error) {
		executed.Add(1)
		return fakeRun(ctx, s, p, reg)
	})
	defer svc2.Close()
	j2, ok := svc2.Get(spec.ID())
	if !ok {
		t.Fatal("terminal job not recovered")
	}
	st := j2.Status()
	if st.State != StateDone || len(st.Artifacts) != len(want.Artifacts) {
		t.Fatalf("recovered status = %+v", st)
	}
	// Resubmitting the same spec deduplicates against the recovered job.
	j3, existed, err := svc2.Submit(spec)
	if err != nil || !existed || j3 != j2 {
		t.Fatalf("resubmit after restart: existed %v err %v", existed, err)
	}
	time.Sleep(50 * time.Millisecond)
	if executed.Load() != 0 {
		t.Errorf("recovered done job re-executed %d runs", executed.Load())
	}
}
