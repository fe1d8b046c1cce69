package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metric is one reported number. Note, when set, is printed beside it
// (the tail's percentile and sample count, or why a layer metric is n/a).
type metric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Note  string  `json:"note,omitempty"`
}

// host records what the numbers were measured on.
type host struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	Source     string `json:"source_sha256"`
	Seed       int64  `json:"seed"`
}

// report is everything one invocation measured.
type report struct {
	Workload  string   `json:"workload"`
	Trace     bool     `json:"trace"`
	Host      host     `json:"host"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Metrics   []metric `json:"metrics"`
	Ledger    []string `json:"ledger,omitempty"`
	Notes     []string `json:"notes,omitempty"`
}

func (r *report) add(name string, v float64, unit string) *metric {
	r.Metrics = append(r.Metrics, metric{Name: name, Value: v, Unit: unit})
	return &r.Metrics[len(r.Metrics)-1]
}

// secs adds a duration metric in seconds.
func (r *report) secs(name string, d time.Duration) *metric { return r.add(name, d.Seconds(), "s") }

func (r *report) notef(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// correct holds when every attempted op passed its checks and every value
// is a finite number.
func (r *report) correct() bool {
	if r.Failed != 0 || r.Attempted == 0 {
		return false
	}
	for _, m := range r.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return false
		}
	}
	return true
}

// print writes the human-readable report, then the result object as the
// last line.
func (r *report) print(w io.Writer) error {
	bw := bufio.NewWriter(w)
	h := r.Host
	fmt.Fprintf(bw, "host: cpu=%q nproc=%d GOMAXPROCS=%d go=%s commit=%s source=%.16s seed=%d (default %d, held-out %d)\n",
		h.CPU, h.NProc, h.GOMAXPROCS, h.GoVersion, h.Commit, h.Source, h.Seed, defaultSeed, heldOutSeed)
	mode := "end-to-end (untraced)"
	if r.Trace {
		mode = "per-layer (traced)"
	}
	fmt.Fprintf(bw, "workload %s, %s\n", r.Workload, mode)
	for _, m := range r.Metrics {
		fmt.Fprintf(bw, "  %-28s %16.6g %-7s %s\n", m.Name, m.Value, m.Unit, m.Note)
	}
	fmt.Fprintf(bw, "  %-28s %16.6g %-7s %d failed of %d attempted\n", "fail_ratio",
		ratio(float64(r.Failed), float64(r.Attempted)), "ratio", r.Failed, r.Attempted)
	for _, l := range r.Ledger {
		fmt.Fprintln(bw, l)
	}
	for _, n := range r.Notes {
		fmt.Fprintln(bw, "note:", n)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.correct(), r.Attempted, r.Failed, map[string]value{}}
	for _, m := range r.Metrics {
		v := m.Value
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0 // JSON has no NaN; correct() is already false
		}
		out.Metrics[m.Name] = value{v, m.Unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	bw.Write(line)
	bw.WriteByte('\n')
	return bw.Flush()
}

// save writes the full report, host facts included, as JSON under dir.
func (r *report) save(dir string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	kind := "e2e"
	if r.Trace {
		kind = "layers"
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d-%s.json", r.Workload, r.Host.Seed, kind))
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, append(data, '\n'), 0o644)
}

// hostFacts gathers the host and build facts printed with every result.
func hostFacts(root, commit string, seed int64) host {
	h := host{
		CPU: "unknown", NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Commit: commit, Seed: seed,
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	h.Source = sourceDigest(root)
	return h
}

// sourceDigest hashes every regular file of the checkout outside hidden
// directories, in path order: it identifies the code measured when the
// checkout carries no git metadata.
func sourceDigest(root string) string {
	var paths []string
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && p != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.Type().IsRegular() {
			paths = append(paths, p)
		}
		return nil
	})
	if err != nil {
		return "unknown"
	}
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return "unknown"
		}
		rel, _ := filepath.Rel(root, p)
		fmt.Fprintf(h, "%s %d\n", rel, len(data))
		h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil))
}

func totalAlloc() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.TotalAlloc
}

// addLatency adds op_p50_s and op_tail_s over the latencies of successful
// ops.
func (r *report) addLatency(lats []float64) {
	r.add("op_p50_s", median(lats), "s").Note = fmt.Sprintf("n=%d", len(lats))
	v, pct, ok := tail(lats)
	m := r.add("op_tail_s", v, "s")
	if ok {
		m.Note = fmt.Sprintf("p%.1f, n=%d, %d beyond", pct, len(lats), tailBeyond)
	} else {
		m.Note = fmt.Sprintf("n/a: n=%d leaves no percentile with %d beyond", len(lats), tailBeyond)
	}
}
