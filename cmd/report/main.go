// Command report renders per-request latency attribution reports: Markdown
// stage breakdowns (admission / pwq / walk / wire with p50/p95/p99), the
// scheme-vs-baseline delta table, and per-link NoC heatmap CSVs.
//
// It runs scheme and baseline under WithAttribution and reports the
// comparison:
//
//	report -scheme hdpat -bench SPMV,PR -o results/report
//
// Artifacts land in the -o directory: report.md plus one
// heatmap-<scheme>-<benchmark>.csv per attributed run. With -o "" everything
// is written to stdout.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"hdpat"
	"hdpat/internal/attr"
)

func main() {
	scheme := flag.String("scheme", "hdpat", "scheme to compare against the baseline")
	bench := flag.String("bench", "SPMV", "comma-separated benchmark abbreviations")
	budget := flag.Int("budget", 0, "per-CU ops budget override (0 = simulator default)")
	seed := flag.Int64("seed", 1, "workload seed")
	mesh := flag.Int("mesh", 0, "square mesh side override (0 = config default)")
	routing := flag.String("routing", "", "NoC routing policy (\"\" = xy, or \"deflect\"; heatmaps gain live deflection columns)")
	outDir := flag.String("o", "results/report", "output directory (\"\" = stdout)")
	flag.Parse()

	if err := run(*scheme, *bench, *budget, *seed, *mesh, *routing, *outDir); err != nil {
		fmt.Fprintln(os.Stderr, "report:", err)
		os.Exit(1)
	}
}

// run simulates the scheme/baseline pair per benchmark with attribution on
// and renders breakdowns, deltas and heatmaps.
func run(scheme, bench string, budget int, seed int64, mesh int, routing, outDir string) error {
	out, err := newEmitter(outDir)
	if err != nil {
		return err
	}
	cfg := hdpat.DefaultConfig()
	if mesh > 0 {
		cfg.MeshW, cfg.MeshH = mesh, mesh
	}
	benches := strings.Split(bench, ",")
	opts := []hdpat.Option{hdpat.WithSeed(seed), hdpat.WithAttribution()}
	if budget > 0 {
		opts = append(opts, hdpat.WithOpsBudget(budget))
	}
	if routing != "" {
		opts = append(opts, hdpat.WithRouting(routing))
	}
	cmps, err := hdpat.CompareAll(context.Background(), cfg, []string{scheme}, benches, opts...)
	if err != nil {
		return err
	}
	md, err := out.create("report.md")
	if err != nil {
		return err
	}
	fmt.Fprintf(md, "# Latency attribution: %s vs baseline\n", scheme)
	for _, c := range cmps {
		if c.Err != nil {
			return fmt.Errorf("%s/%s: %w", c.Scheme, c.Benchmark, c.Err)
		}
		fmt.Fprintf(md, "\n## %s (speedup %.3fx)\n\n", c.Benchmark, c.Speedup)
		c.Result.Breakdown.WriteMarkdown(md)
		fmt.Fprintln(md)
		c.Baseline.Breakdown.WriteMarkdown(md)
		fmt.Fprintf(md, "\n### Delta: %s minus baseline on %s\n\n", c.Scheme, c.Benchmark)
		attr.CompareMarkdown(md, c.Result.Breakdown, c.Baseline.Breakdown)
		for _, b := range []*hdpat.Breakdown{c.Result.Breakdown, c.Baseline.Breakdown} {
			name := fmt.Sprintf("heatmap-%s-%s.csv", b.Scheme, b.Benchmark)
			if err := out.write(name, b.HeatmapCSV()); err != nil {
				return err
			}
		}
	}
	return out.close(md)
}

// emitter writes named artifacts into a directory, or everything to stdout
// when the directory is empty.
type emitter struct{ dir string }

func newEmitter(dir string) (*emitter, error) {
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
	}
	return &emitter{dir: dir}, nil
}

func (e *emitter) create(name string) (io.WriteCloser, error) {
	if e.dir == "" {
		return nopCloser{os.Stdout}, nil
	}
	return os.Create(filepath.Join(e.dir, name))
}

func (e *emitter) write(name, content string) error {
	if e.dir == "" {
		fmt.Printf("--- %s ---\n%s", name, content)
		return nil
	}
	return os.WriteFile(filepath.Join(e.dir, name), []byte(content), 0o644)
}

func (e *emitter) close(w io.WriteCloser) error {
	if err := w.Close(); err != nil {
		return err
	}
	if e.dir != "" {
		fmt.Printf("report written to %s\n", e.dir)
	}
	return nil
}

type nopCloser struct{ io.Writer }

func (nopCloser) Close() error { return nil }
