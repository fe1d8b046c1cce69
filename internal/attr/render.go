package attr

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// WriteMarkdown renders the breakdown as a Markdown report section: the
// latency-breakdown table (cycle sums, shares, mean and percentiles per
// stage), the serving-source mix, the TLB hierarchy table and time-series
// summaries. The output is deterministic for a given breakdown.
func (b *Breakdown) WriteMarkdown(w io.Writer) {
	title := b.Scheme
	if b.Benchmark != "" {
		title += " / " + b.Benchmark
	}
	if title == "" {
		title = "run"
	}
	fmt.Fprintf(w, "### %s\n\n", title)
	fmt.Fprintf(w, "%d requests over %d cycles", b.Requests, b.Cycles)
	if b.Unfinished > 0 {
		fmt.Fprintf(w, " (%d unfinished)", b.Unfinished)
	}
	fmt.Fprintf(w, ".\n\n")

	total := b.Stage(StageTotal)
	fmt.Fprintf(w, "| Stage | Cycles | Share | Mean | p50 | p95 | p99 |\n")
	fmt.Fprintf(w, "|---|---:|---:|---:|---:|---:|---:|\n")
	rows := append(append([]string{}, StageOrder...), StageTotal)
	for _, s := range rows {
		d := b.Stage(s)
		share := 0.0
		if total.Sum > 0 {
			share = float64(d.Sum) / float64(total.Sum) * 100
		}
		fmt.Fprintf(w, "| %s | %d | %.1f%% | %.1f | %.0f | %.0f | %.0f |\n",
			s, d.Sum, share, d.Mean(),
			d.Quantile(0.50), d.Quantile(0.95), d.Quantile(0.99))
	}
	fmt.Fprintln(w)

	if len(b.Sources) > 0 {
		fmt.Fprintf(w, "| Source | Requests | Share |\n|---|---:|---:|\n")
		names := make([]string, 0, len(b.Sources))
		for n := range b.Sources {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			share := 0.0
			if b.Requests > 0 {
				share = float64(b.Sources[n]) / float64(b.Requests) * 100
			}
			fmt.Fprintf(w, "| %s | %d | %.1f%% |\n", n, b.Sources[n], share)
		}
		fmt.Fprintln(w)
	}

	if len(b.TLB) > 0 {
		fmt.Fprintf(w, "| TLB | Hits | Misses | Hit rate |\n|---|---:|---:|---:|\n")
		for _, t := range b.TLB {
			fmt.Fprintf(w, "| %s | %d | %d | %.1f%% |\n", t.Level, t.Hits, t.Misses, t.HitRate*100)
		}
		fmt.Fprintln(w)
	}

	if len(b.Series) > 0 {
		names := make([]string, 0, len(b.Series))
		for n := range b.Series {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintf(w, "| Series | Samples | Mean | Peak |\n|---|---:|---:|---:|\n")
		for _, n := range names {
			ss := b.Series[n]
			if len(ss) == 0 {
				continue
			}
			var sum, peak float64
			for _, s := range ss {
				sum += s.Value
				if s.Value > peak {
					peak = s.Value
				}
			}
			fmt.Fprintf(w, "| %s | %d | %.1f | %.0f |\n", n, len(ss), sum/float64(len(ss)), peak)
		}
		fmt.Fprintln(w)
	}
}

// HeatmapCSV renders the per-link NoC heatmap as CSV: one row per active
// directed link in (y, x, dir) order. Utilisation is busy cycles over the
// run length; peak_window_util is the busiest single sampling window;
// deflections is the misrouted-hop count under bufferless deflection
// routing (0 everywhere under XY).
func (b *Breakdown) HeatmapCSV() string {
	var sb strings.Builder
	sb.WriteString("x,y,dir,messages,bytes,busy_cycles,utilization,peak_window_util,deflections\n")
	for _, l := range b.Links {
		fmt.Fprintf(&sb, "%d,%d,%s,%d,%d,%d,%.4f,%.4f,%d\n",
			l.X, l.Y, l.Dir, l.Messages, l.Bytes, l.Busy, l.Util, l.PeakUtil, l.Deflections)
	}
	return sb.String()
}

// CompareMarkdown renders a res-vs-base diff table: per-stage mean and p95
// deltas (negative = res faster) plus the request-count delta.
func CompareMarkdown(w io.Writer, res, base *Breakdown) {
	fmt.Fprintf(w, "### %s vs %s\n\n", res.Scheme, base.Scheme)
	fmt.Fprintf(w, "| Stage | %s mean | %s mean | Δ mean | Δ p95 |\n", res.Scheme, base.Scheme)
	fmt.Fprintf(w, "|---|---:|---:|---:|---:|\n")
	d := Diff(res, base)
	for _, s := range append(append([]string{}, StageOrder...), StageTotal) {
		fmt.Fprintf(w, "| %s | %.1f | %.1f | %+.1f | %+.1f |\n",
			s, res.Stage(s).Mean(), base.Stage(s).Mean(), d[s+".mean"], d[s+".p95"])
	}
	fmt.Fprintf(w, "\nRequests: %d vs %d (%+.0f).\n\n", res.Requests, base.Requests, d["requests"])
}
