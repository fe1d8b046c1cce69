// Package experiments regenerates every table and figure of the paper's
// evaluation (§III and §V). Each experiment is addressable by the paper's
// artifact id (fig2..fig22, tab1, tab2, area) and produces a Table whose
// rows mirror what the paper reports, so EXPERIMENTS.md can record
// paper-vs-measured side by side.
package experiments

import (
	"context"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"hdpat/internal/config"
	"hdpat/internal/metrics"
	"hdpat/internal/runner"
	"hdpat/internal/wafer"
	"hdpat/internal/workload"
	"hdpat/internal/xlat"
)

// Table is one experiment's output.
type Table struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// Add appends a row of stringified cells.
func (t *Table) Add(cells ...string) { t.Rows = append(t.Rows, cells) }

// Addf appends a row formatting each value with %v (floats as %.3f).
func (t *Table) Addf(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.3f", v)
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.Rows = append(t.Rows, row)
}

// Note attaches a free-form annotation printed under the table.
func (t *Table) Note(format string, args ...any) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// String renders the table with aligned columns.
func (t Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i < len(widths) {
				fmt.Fprintf(&b, "%-*s  ", widths[i], c)
			} else {
				b.WriteString(c + "  ")
			}
		}
		b.WriteByte('\n')
	}
	line(t.Header)
	for _, r := range t.Rows {
		line(r)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// Markdown renders the table as a GitHub-flavoured Markdown section, the
// format cmd/experiments -report writes per-experiment artifacts in. Pipes
// inside cells are escaped so free-text notes columns cannot break rows.
func (t Table) Markdown() string {
	esc := func(c string) string { return strings.ReplaceAll(c, "|", "\\|") }
	var b strings.Builder
	fmt.Fprintf(&b, "### %s: %s\n\n", t.ID, t.Title)
	for i, h := range t.Header {
		if i == 0 {
			b.WriteByte('|')
		}
		b.WriteString(" " + esc(h) + " |")
	}
	b.WriteByte('\n')
	for range t.Header {
		b.WriteString("|---")
	}
	b.WriteString("|\n")
	for _, r := range t.Rows {
		b.WriteByte('|')
		for _, c := range r {
			b.WriteString(" " + esc(c) + " |")
		}
		b.WriteByte('\n')
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "\n*%s*\n", n)
	}
	return b.String()
}

// Params configure a session.
type Params struct {
	// Quick restricts benchmarks and shrinks budgets for CI-speed runs.
	Quick bool
	// OpsBudget overrides the per-CU operation budget (0 = default).
	OpsBudget int
	Seed      int64
	// Benchmarks restricts the benchmark set (nil = Table II set, or the
	// quick subset under Quick).
	Benchmarks []string
	// Workers bounds the simulations a figure's warm-up phase runs in
	// parallel (<= 0 means GOMAXPROCS; 1 forces serial execution).
	Workers int
}

// Session runs experiments, memoising simulation results so figures that
// share runs (fig14/15/16/17 all need baseline+hdpat per benchmark) pay
// once. Figure generators declare their run set up front (warm/warmPairs),
// which executes the cache misses as one parallel batch; the generators'
// serial loops then assemble tables from cache hits. A Session is not
// goroutine-safe — parallelism lives inside warm.
type Session struct {
	P     Params
	cache map[string]wafer.Result
	// Runs counts actual (non-cached) simulations, for reporting.
	Runs int
	// Metrics, when set, receives runner.* batch-throughput series from the
	// warm-up pools, so a live endpoint (metrics.ListenAndServe) can report
	// progress while figures regenerate.
	Metrics *metrics.Registry
}

// NewSession creates a session.
func NewSession(p Params) *Session {
	if p.OpsBudget == 0 {
		if p.Quick {
			p.OpsBudget = 48
		} else {
			p.OpsBudget = 96
		}
	}
	return &Session{P: p, cache: make(map[string]wafer.Result)}
}

// benchmarks returns the active benchmark list.
func (s *Session) benchmarks() []string {
	if len(s.P.Benchmarks) > 0 {
		return s.P.Benchmarks
	}
	if s.P.Quick {
		return []string{"AES", "BT", "FIR", "KM", "PR", "SPMV"}
	}
	return workload.Names()
}

// runKey is the memo key for one simulation. It renders the whole config:
// config.System holds only plain values, so two configs share a key exactly
// when every field agrees.
func runKey(cfg config.System, scheme, bench string, opts wafer.Options) string {
	return fmt.Sprintf("%+v|%s|%s|%d|%d", cfg, scheme, bench, opts.OpsBudget, opts.Seed)
}

// plainRun reports whether a run is memoisable (no hooks, observability
// sinks or series, which attach per-call state the cache cannot share).
func plainRun(opts wafer.Options) bool {
	return len(opts.Hooks) == 0 && opts.Metrics == nil && opts.Trace == nil &&
		opts.Attribution == nil && opts.QueueWindow == 0
}

// execute performs one simulation with the session's defaults applied. It
// touches no session state, so warm may call it from worker goroutines.
func (s *Session) execute(ctx context.Context, cfg config.System, scheme, bench string, opts wafer.Options) (wafer.Result, error) {
	b, err := workload.ByAbbr(bench)
	if err != nil {
		return wafer.Result{}, err
	}
	opts.Scheme = scheme
	opts.Benchmark = b
	if opts.OpsBudget == 0 {
		opts.OpsBudget = s.P.OpsBudget
	}
	if opts.Seed == 0 {
		opts.Seed = s.P.Seed + 1
	}
	return wafer.RunContext(ctx, cfg, opts)
}

// run executes (or recalls) one simulation.
func (s *Session) run(cfg config.System, scheme, bench string, opts wafer.Options) (wafer.Result, error) {
	key := runKey(cfg, scheme, bench, opts)
	plain := plainRun(opts)
	if plain {
		if r, ok := s.cache[key]; ok {
			return r, nil
		}
	}
	res, err := s.execute(context.Background(), cfg, scheme, bench, opts)
	if err != nil {
		return wafer.Result{}, err
	}
	s.Runs++
	if plain {
		s.cache[key] = res
	}
	return res, nil
}

// simJob names one simulation for parallel pre-execution.
type simJob struct {
	cfg           config.System
	scheme, bench string
	opts          wafer.Options
}

// warm executes the given simulations' cache misses as one parallel batch
// (bounded by Params.Workers) and memoises the results, so the caller's
// subsequent run() calls are cache hits. Non-memoisable jobs (observers,
// series) are skipped — they run serially in the generator as before.
// Results are identical to serial execution; only wall-clock changes.
func (s *Session) warm(jobs []simJob) error {
	var pending []simJob
	var keys []string
	seen := map[string]bool{}
	for _, j := range jobs {
		key := runKey(j.cfg, j.scheme, j.bench, j.opts)
		if !plainRun(j.opts) || seen[key] {
			continue
		}
		if _, ok := s.cache[key]; ok {
			continue
		}
		seen[key] = true
		pending = append(pending, j)
		keys = append(keys, key)
	}
	if len(pending) == 0 {
		return nil
	}
	tasks := make([]runner.Task, len(pending))
	for i, j := range pending {
		j := j
		tasks[i] = func(ctx context.Context) (wafer.Result, error) {
			return s.execute(ctx, j.cfg, j.scheme, j.bench, j.opts)
		}
	}
	pool := &runner.Pool{Workers: s.P.Workers, Metrics: s.Metrics}
	for i, out := range pool.Run(context.Background(), tasks) {
		if out.Err != nil {
			return fmt.Errorf("experiments: %s/%s: %w", pending[i].scheme, pending[i].bench, out.Err)
		}
		s.Runs++
		s.cache[keys[i]] = out.Result
	}
	return nil
}

// warmPairs pre-runs the baseline plus each named scheme across the given
// benchmarks on the default wafer — the run set behind pair()-based
// figures.
func (s *Session) warmPairs(schemes []string, benches []string) error {
	var jobs []simJob
	for _, bench := range benches {
		for _, scheme := range append([]string{"baseline"}, schemes...) {
			cfg, err := wafer.ConfigFor(scheme, config.Default())
			if err != nil {
				return err
			}
			jobs = append(jobs, simJob{cfg: cfg, scheme: scheme, bench: bench})
		}
	}
	return s.warm(jobs)
}

// pair runs baseline and the named scheme on a benchmark with the default
// wafer and returns (base, other).
func (s *Session) pair(scheme, bench string) (wafer.Result, wafer.Result, error) {
	baseCfg, err := wafer.ConfigFor("baseline", config.Default())
	if err != nil {
		return wafer.Result{}, wafer.Result{}, err
	}
	base, err := s.run(baseCfg, "baseline", bench, wafer.Options{})
	if err != nil {
		return wafer.Result{}, wafer.Result{}, err
	}
	cfg, err := wafer.ConfigFor(scheme, config.Default())
	if err != nil {
		return wafer.Result{}, wafer.Result{}, err
	}
	res, err := s.run(cfg, scheme, bench, wafer.Options{})
	return base, res, err
}

// Experiment is one reproducible paper artifact.
type Experiment struct {
	ID    string
	Title string
	Run   func(s *Session) (Table, error)
}

// All returns every experiment in paper order.
func All() []Experiment {
	return []Experiment{
		{"tab1", "Configuration of wafer-scale GPUs (Table I)", Table1},
		{"tab2", "Benchmarks, workgroups and memory footprint (Table II)", Table2},
		{"fig2", "Performance headroom of idealised IOMMUs", Fig2},
		{"fig3", "IOMMU per-request latency breakdown (SPMV)", Fig3},
		{"fig4", "IOMMU buffer pressure: MCM vs wafer-scale (SPMV)", Fig4},
		{"fig5", "GPM execution time by geometric position", Fig5},
		{"fig6", "Per-page IOMMU translation counts", Fig6},
		{"fig7", "Reuse distance between repeated translations", Fig7},
		{"fig8", "Virtual-page distance of consecutive requests", Fig8},
		{"fig13", "Size invariance of IOMMU pressure (FIR)", Fig13},
		{"fig14", "Overall performance vs state of the art", Fig14},
		{"fig15", "Ablation of HDPAT techniques", Fig15},
		{"fig16", "Translation handling breakdown", Fig16},
		{"fig17", "Remote translation round-trip time and NoC traffic", Fig17},
		{"fig18", "Proactive delivery granularity", Fig18},
		{"fig19", "Redirection table vs IOMMU TLB", Fig19},
		{"fig20", "System page size sensitivity", Fig20},
		{"fig21", "Generalisation across GPU configurations", Fig21},
		{"fig22", "7x12 wafer generalisation", Fig22},
		{"area", "Area and power overhead (SV-F)", Area},
		// Extension studies beyond the paper (see ext.go); excluded from
		// the default run by RunByDefault.
		{"ext-probe", "EXT: probe dispatch policy and layer count", ExtProbePolicy},
		{"ext-threshold", "EXT: selective push threshold sweep", ExtPushThreshold},
		{"ext-ownerfw", "EXT: owner-forwarded walks what-if", ExtOwnerForward},
	}
}

// RunByDefault reports whether an experiment belongs to the paper's
// artifact set (run when no -run filter is given); extension studies are
// opt-in.
func RunByDefault(id string) bool {
	return len(id) < 4 || id[:4] != "ext-"
}

// ByID resolves an experiment.
func ByID(id string) (Experiment, error) {
	for _, e := range All() {
		if e.ID == id {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("experiments: unknown id %q", id)
}

// IDs lists all experiment ids.
func IDs() []string {
	var out []string
	for _, e := range All() {
		out = append(out, e.ID)
	}
	return out
}

// --- shared helpers --------------------------------------------------------

// sortedKeys returns map keys in stable order.
func sortedKeys[M ~map[string]V, V any](m M) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func offloadPct(r wafer.Result) float64 { return 100 * r.OffloadFraction() }

func sourcePct(r wafer.Result, src xlat.Source) float64 {
	by := r.RemoteBySource()
	var tot uint64
	for _, v := range by {
		tot += v
	}
	if tot == 0 {
		return 0
	}
	return 100 * float64(by[src]) / float64(tot)
}

// MarshalJSON renders a Table as a JSON object with id, title, header,
// rows, and notes — the machine-readable form behind `experiments -json`.
func (t Table) MarshalJSON() ([]byte, error) {
	return json.Marshal(struct {
		ID     string     `json:"id"`
		Title  string     `json:"title"`
		Header []string   `json:"header"`
		Rows   [][]string `json:"rows"`
		Notes  []string   `json:"notes,omitempty"`
	}{t.ID, t.Title, t.Header, t.Rows, t.Notes})
}

// CSV renders the table as RFC-4180 CSV (header + rows).
func (t Table) CSV() string {
	var b strings.Builder
	w := csv.NewWriter(&b)
	_ = w.Write(t.Header)
	for _, r := range t.Rows {
		_ = w.Write(r)
	}
	w.Flush()
	return b.String()
}
