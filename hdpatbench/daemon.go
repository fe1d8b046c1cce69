package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"hdpat"
	"hdpat/internal/metrics"
	"hdpat/internal/service"
)

// clients is the number of closed-loop hdpatd clients, one per CPU of the
// reference host; each keeps at most one request in flight.
const clients = 2

// daemon is a running hdpatd process on a fresh state directory.
type daemon struct {
	cmd     *exec.Cmd
	dir     string
	base    string
	exited  chan struct{}
	waitErr error
}

// logWatch receives hdpatd's structured log on stderr, reports the
// address from its "listening" record and keeps the head for diagnostics.
type logWatch struct {
	mu      sync.Mutex
	partial []byte
	head    bytes.Buffer
	addr    chan string
}

func (w *logWatch) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.head.Len() < 16<<10 {
		w.head.Write(p)
	}
	if w.addr == nil {
		return len(p), nil
	}
	w.partial = append(w.partial, p...)
	for {
		i := bytes.IndexByte(w.partial, '\n')
		if i < 0 {
			break
		}
		var rec struct{ Msg, Addr string }
		if json.Unmarshal(w.partial[:i], &rec) == nil && rec.Msg == "listening" && rec.Addr != "" {
			w.addr <- rec.Addr
			w.addr, w.partial = nil, nil
			break
		}
		w.partial = w.partial[i+1:]
	}
	return len(p), nil
}

func (w *logWatch) String() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.head.String()
}

// startDaemon starts hdpatd with one job worker and one run worker on the
// state directory dir and returns once /readyz answers 200.
func startDaemon(ctx context.Context, hc *http.Client, bin, dir string) (*daemon, error) {
	lw := &logWatch{addr: make(chan string, 1)}
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-data", dir, "-job-workers", "1", "-run-workers", "1")
	cmd.Stderr = lw
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start hdpatd: %w", err)
	}
	d := &daemon{cmd: cmd, dir: dir, exited: make(chan struct{})}
	go func() {
		d.waitErr = cmd.Wait()
		close(d.exited)
	}()
	fail := func(err error) (*daemon, error) {
		d.stop()
		return nil, fmt.Errorf("%w; hdpatd log:\n%s", err, lw)
	}
	deadline := time.After(30 * time.Second)
	select {
	case addr := <-lw.addr:
		d.base = "http://" + addr
	case <-ctx.Done():
		return fail(ctx.Err())
	case <-d.exited:
		return fail(fmt.Errorf("hdpatd exited during start-up: %v", d.waitErr))
	case <-deadline:
		return fail(errors.New("hdpatd did not report its address within 30s"))
	}
	for {
		if code, _, err := get(ctx, hc, d.base+"/readyz"); err == nil && code == http.StatusOK {
			return d, nil
		}
		select {
		case <-ctx.Done():
			return fail(ctx.Err())
		case <-d.exited:
			return fail(fmt.Errorf("hdpatd exited before ready: %v", d.waitErr))
		case <-deadline:
			return fail(errors.New("hdpatd not ready within 30s"))
		case <-time.After(100 * time.Microsecond):
		}
	}
}

// stop terminates the daemon gracefully (SIGTERM), killing it after 15s,
// and waits until it has exited.
func (d *daemon) stop() {
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.exited:
	case <-time.After(15 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.exited
	}
}

// shutdown stops the daemon and removes its state directory.
func (d *daemon) shutdown() {
	d.stop()
	os.RemoveAll(d.dir)
}

// peakRSSMB is the peak resident set size (VmHWM) of pid, 0 meaning this
// process.
func peakRSSMB(pid int) (float64, error) { return statusMB(pid, "VmHWM:") }

// statusMB reads a kB field of /proc/<pid>/status in MB.
func statusMB(pid int, field string) (float64, error) {
	path := "/proc/self/status"
	if pid != 0 {
		path = "/proc/" + strconv.Itoa(pid) + "/status"
	}
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), field); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb * 1024 / 1e6, err
		}
	}
	return 0, fmt.Errorf("%s: no %s", path, field)
}

// rssSampler reads a process's resident set size (VmRSS) at a fixed
// interval until stopped.
type rssSampler struct {
	stop    chan struct{}
	done    chan struct{}
	samples []float64
}

func sampleRSS(pid int, every time.Duration) *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			if mb, err := statusMB(pid, "VmRSS:"); err == nil {
				s.samples = append(s.samples, mb)
			}
			select {
			case <-s.stop:
				return
			case <-t.C:
			}
		}
	}()
	return s
}

// finish stops the sampler and returns its samples.
func (s *rssSampler) finish() []float64 {
	close(s.stop)
	<-s.done
	return s.samples
}

// counters fetches the daemon's aggregate metric counters.
func (d *daemon) counters(ctx context.Context, hc *http.Client) (map[string]uint64, error) {
	code, body, err := get(ctx, hc, d.base+"/metrics.json")
	if err != nil {
		return nil, err
	}
	if code != http.StatusOK {
		return nil, fmt.Errorf("/metrics.json: HTTP %d", code)
	}
	var snap metrics.Snapshot
	if err := json.Unmarshal(body, &snap); err != nil {
		return nil, fmt.Errorf("/metrics.json: %w", err)
	}
	return snap.Counters, nil
}

func newHTTPClient() *http.Client {
	return &http.Client{Transport: &http.Transport{MaxConnsPerHost: clients, MaxIdleConnsPerHost: clients}}
}

func get(ctx context.Context, hc *http.Client, url string) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return 0, nil, err
	}
	return do(hc, req)
}

func do(hc *http.Client, req *http.Request) (int, []byte, error) {
	resp, err := hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

// jobOutcome is one closed-loop hdpatd op: submit, long-poll to terminal,
// fetch and check every artifact.
type jobOutcome struct {
	Op       jobOp
	Code     int // submit status: 201 created, 200 deduplicated
	ID       string
	Span     int // the op's span in the traced run
	WaitSpan int // its long-poll span, parent of the daemon's queue and run spans
	Lane     int
	Start    time.Time
	End      time.Time
	Submit   time.Duration
	Wait     time.Duration
	Fetch    time.Duration
	Arts     []service.Artifact
	Bytes    int64
	Cycles   uint64 // baseline + scheme
	Events   uint64
	Speedup  float64
	Err      error
}

func (o *jobOutcome) Lat() time.Duration { return o.End.Sub(o.Start) }

// opTimeout bounds one hdpatd op; an op that exceeds it fails.
const opTimeout = 2 * time.Minute

// runJob performs one op against the daemon at base.
func runJob(ctx context.Context, hc *http.Client, base string, op jobOp, rec *recorder, lane int) (out jobOutcome) {
	ctx, cancel := context.WithTimeout(ctx, opTimeout)
	defer cancel()
	out = jobOutcome{Op: op, Start: time.Now(), Lane: lane}
	out.Span = rec.open("job", 0, lane)
	defer func() {
		out.End = time.Now()
		rec.close(out.Span)
	}()
	var st service.Status
	rec.timed("submit", out.Span, lane, func(int) {
		t0 := time.Now()
		body, _ := json.Marshal(op.Spec) // JobSpec holds only marshalable fields
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/v1/jobs", bytes.NewReader(body))
		if err != nil {
			out.Err = err
			return
		}
		req.Header.Set("Content-Type", "application/json")
		var data []byte
		out.Code, data, out.Err = do(hc, req)
		out.Submit = time.Since(t0)
		if out.Err == nil && out.Code != http.StatusCreated && out.Code != http.StatusOK {
			out.Err = fmt.Errorf("submit: HTTP %d: %s", out.Code, bytes.TrimSpace(data))
		}
		if out.Err == nil {
			out.Err = json.Unmarshal(data, &st)
		}
	})
	if out.Err != nil {
		return out
	}
	out.ID = st.ID
	rec.timed("wait", out.Span, lane, func(id int) {
		out.WaitSpan = id
		t0 := time.Now()
		for !st.State.Terminal() && out.Err == nil {
			url := fmt.Sprintf("%s/v1/jobs/%s/progress?since=%d&timeout=30s", base, st.ID, st.Rev)
			var code int
			var data []byte
			if code, data, out.Err = get(ctx, hc, url); out.Err == nil {
				if code != http.StatusOK {
					out.Err = fmt.Errorf("progress: HTTP %d", code)
				} else {
					out.Err = json.Unmarshal(data, &st)
				}
			}
		}
		out.Wait = time.Since(t0)
	})
	if out.Err == nil && st.State != service.StateDone {
		out.Err = fmt.Errorf("job %s ended %s: %s", st.ID, st.State, st.Error)
	}
	if out.Err != nil {
		return out
	}
	out.Arts = st.Artifacts
	rec.timed("artifact_fetch", out.Span, lane, func(int) {
		t0 := time.Now()
		out.Err = fetchArtifacts(ctx, hc, base, &out)
		out.Fetch = time.Since(t0)
	})
	return out
}

// fetchArtifacts GETs every artifact of a done job, checks that its bytes
// hash to the served digest, and reads the cycles, events and speedup.
func fetchArtifacts(ctx context.Context, hc *http.Client, base string, out *jobOutcome) error {
	if len(out.Arts) == 0 {
		return errors.New("done job lists no artifacts")
	}
	for _, a := range out.Arts {
		code, data, err := get(ctx, hc, base+"/v1/artifacts/"+a.Digest)
		if err != nil {
			return err
		}
		if code != http.StatusOK {
			return fmt.Errorf("artifact %s: HTTP %d", a.Name, code)
		}
		if sum := sha256.Sum256(data); hex.EncodeToString(sum[:]) != a.Digest || int64(len(data)) != a.Size {
			return fmt.Errorf("artifact %s: served bytes do not hash to digest %.12s", a.Name, a.Digest)
		}
		out.Bytes += int64(len(data))
		switch {
		case strings.HasPrefix(a.Name, "run-"):
			var res struct{ Events uint64 }
			if err := json.Unmarshal(data, &res); err != nil {
				return fmt.Errorf("artifact %s: %w", a.Name, err)
			}
			out.Events += res.Events
		case a.Name == "comparisons.json":
			var rows []struct {
				BaselineCycles uint64  `json:"baseline_cycles"`
				Cycles         uint64  `json:"cycles"`
				Speedup        float64 `json:"speedup"`
			}
			if err := json.Unmarshal(data, &rows); err != nil || len(rows) != 1 {
				return fmt.Errorf("artifact %s: want one comparison row (%v)", a.Name, err)
			}
			out.Cycles = rows[0].BaselineCycles + rows[0].Cycles
			out.Speedup = rows[0].Speedup
		}
	}
	return nil
}

// runJobs drives ops [0, total) of js through `clients` closed-loop
// clients and returns their outcomes in op order.
func runJobs(ctx context.Context, hc *http.Client, base string, js *jobStream, total int, rec *recorder) []jobOutcome {
	outs := make([]jobOutcome, total)
	var mu sync.Mutex
	next := 0
	var wg sync.WaitGroup
	for lane := 1; lane <= clients; lane++ {
		wg.Add(1)
		go func(lane int) {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				if i >= total {
					mu.Unlock()
					return
				}
				next++
				op := js.op(i)
				mu.Unlock()
				outs[i] = runJob(ctx, hc, base, op, rec, lane)
			}
		}(lane)
	}
	wg.Wait()
	return outs
}

// materializeRun is the run seam hdpatd serves jobs through, rebuilt from
// the public facade: the job's seed, budget and attribution on the
// daemon's default Table I wafer.
func materializeRun(ctx context.Context, spec service.JobSpec, p service.Point, reg *metrics.Registry) (hdpat.Result, error) {
	opts := []hdpat.Option{hdpat.WithSeed(spec.Seed)}
	if spec.OpsBudget > 0 {
		opts = append(opts, hdpat.WithOpsBudget(spec.OpsBudget))
	}
	if spec.Attribution {
		opts = append(opts, hdpat.WithAttribution())
	}
	if reg != nil {
		opts = append(opts, hdpat.WithMetrics(reg))
	}
	return hdpat.SimulateContext(ctx, hdpat.DefaultConfig(), hdpat.RunSpec{Scheme: p.Scheme, Benchmark: p.Benchmark}, opts...)
}

// checkMaterialized recomputes the artifacts of every fresh op's spec with
// service.Materialize and fails each op (repeats included) whose served
// artifact list differs. It returns the TotalAlloc of materialising the
// fresh ops with index < allocUpTo, in bytes.
func checkMaterialized(ctx context.Context, outs []jobOutcome, allocUpTo, workers int) uint64 {
	var fresh []int
	for i, o := range outs {
		if o.Op.Repeat < 0 && o.Err == nil {
			fresh = append(fresh, i)
		}
	}
	want := make(map[int][]service.Artifact, len(fresh))
	errs := make(map[int]error, len(fresh))
	var mu sync.Mutex
	materialize := func(idx []int) {
		runParallel(len(idx), workers, func(k int) {
			i := idx[k]
			blobs, err := service.Materialize(ctx, outs[i].Op.Spec, materializeRun)
			arts := make([]service.Artifact, len(blobs))
			for j, b := range blobs {
				arts[j] = artifactOf(b)
			}
			mu.Lock()
			want[i], errs[i] = arts, err
			mu.Unlock()
		})
	}
	var head, rest []int
	for _, i := range fresh {
		if i < allocUpTo {
			head = append(head, i)
		} else {
			rest = append(rest, i)
		}
	}
	alloc := totalAlloc()
	materialize(head)
	alloc = totalAlloc() - alloc
	materialize(rest)

	for i := range outs {
		o := &outs[i]
		if o.Err != nil {
			continue
		}
		src := i
		if o.Op.Repeat >= 0 {
			src = o.Op.Repeat
		}
		w, ok := want[src]
		switch {
		case !ok:
			o.Err = fmt.Errorf("op %d repeats op %d, which failed", i, src)
		case errs[src] != nil:
			o.Err = fmt.Errorf("materialize: %w", errs[src])
		case !sameArtifacts(o.Arts, w):
			o.Err = fmt.Errorf("served artifacts differ from service.Materialize of the spec")
		}
	}
	return alloc
}

// artifactOf is the artifact entry hdpatd lists for a stored blob.
func artifactOf(b service.Blob) service.Artifact {
	sum := sha256.Sum256(b.Data)
	return service.Artifact{Name: b.Name, Digest: hex.EncodeToString(sum[:]), Size: int64(len(b.Data))}
}

func sameArtifacts(a, b []service.Artifact) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
