// Package stats provides the measurement machinery behind every figure in
// the paper's evaluation: histograms, windowed time series, reuse-distance
// and spatial-locality trackers for the O3/O4 characterisation, latency
// breakdown accumulators for Fig 3, and the geometric-mean summarisation
// used throughout §V.
package stats

import (
	"fmt"
	"math"
	"strings"

	"hdpat/internal/metrics"
)

// Mean returns the arithmetic mean of xs (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// GeoMean returns the geometric mean of xs; non-positive values and empty
// input yield 0.
func GeoMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		if x <= 0 {
			return 0
		}
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}

// Histogram is a log2-bucketed histogram for wide-ranged counts such as
// reuse distances (Fig 7 spans 1 to hundreds of thousands). Bucketing
// follows metrics.Log2Bucket — the repository's single log2-bucket rule —
// so stats and metrics histograms agree bucket for bucket.
type Histogram struct {
	buckets []uint64 // buckets[i] counts values in metrics.BucketRange(i), bucket 0 = {0}
	total   uint64
	sum     float64
	max     uint64
}

// Add records v.
func (h *Histogram) Add(v uint64) {
	b := metrics.Log2Bucket(v)
	for len(h.buckets) <= b {
		h.buckets = append(h.buckets, 0)
	}
	h.buckets[b]++
	h.total++
	h.sum += float64(v)
	if v > h.max {
		h.max = v
	}
}

// Total returns the number of recorded values.
func (h *Histogram) Total() uint64 { return h.total }

// Max returns the largest recorded value.
func (h *Histogram) Max() uint64 { return h.max }

// Mean returns the mean of recorded values.
func (h *Histogram) Mean() float64 {
	if h.total == 0 {
		return 0
	}
	return h.sum / float64(h.total)
}

// Bucket returns the count and inclusive value range of bucket i.
func (h *Histogram) Bucket(i int) (count uint64, lo, hi uint64) {
	if i < 0 || i >= len(h.buckets) {
		return 0, 0, 0
	}
	lo, hi = metrics.BucketRange(i)
	return h.buckets[i], lo, hi
}

// NumBuckets returns how many buckets carry data.
func (h *Histogram) NumBuckets() int { return len(h.buckets) }

// FractionAtMost returns the fraction of values <= v.
func (h *Histogram) FractionAtMost(v uint64) float64 {
	if h.total == 0 {
		return 0
	}
	var n uint64
	for i := range h.buckets {
		_, lo, hi := h.Bucket(i)
		if hi <= v || (i == 0 && v >= lo) {
			n += h.buckets[i]
		}
	}
	return float64(n) / float64(h.total)
}

// String renders the histogram as aligned rows.
func (h *Histogram) String() string {
	var b strings.Builder
	for i := range h.buckets {
		c, lo, hi := h.Bucket(i)
		if c == 0 {
			continue
		}
		fmt.Fprintf(&b, "[%8d,%8d] %8d (%5.1f%%)\n", lo, hi, c, 100*float64(c)/float64(h.total))
	}
	return b.String()
}

// TimeSeries aggregates counts into fixed-width windows of simulated time,
// the presentation used by Fig 4 (buffer pressure) and Fig 13 (request
// rate over time).
type TimeSeries struct {
	Window uint64 // cycles per window
	vals   []float64
	counts []uint64
	mode   tsMode
}

type tsMode int

const (
	tsSum tsMode = iota
	tsMax
)

// NewCountSeries sums samples within each window (e.g. requests served).
func NewCountSeries(window uint64) *TimeSeries {
	return &TimeSeries{Window: window, mode: tsSum}
}

// NewMaxSeries keeps the maximum sample per window (e.g. peak queue depth).
func NewMaxSeries(window uint64) *TimeSeries {
	return &TimeSeries{Window: window, mode: tsMax}
}

// Record adds sample v at cycle t.
func (ts *TimeSeries) Record(t uint64, v float64) {
	w := int(t / ts.Window)
	for len(ts.vals) <= w {
		ts.vals = append(ts.vals, 0)
		ts.counts = append(ts.counts, 0)
	}
	switch ts.mode {
	case tsSum:
		ts.vals[w] += v
	case tsMax:
		if v > ts.vals[w] || ts.counts[w] == 0 {
			ts.vals[w] = v
		}
	}
	ts.counts[w]++
}

// Values returns one value per window.
func (ts *TimeSeries) Values() []float64 {
	out := make([]float64, len(ts.vals))
	copy(out, ts.vals)
	return out
}

// Len returns the number of windows.
func (ts *TimeSeries) Len() int { return len(ts.vals) }

// Peak returns the maximum window value.
func (ts *TimeSeries) Peak() float64 {
	p := 0.0
	for _, v := range ts.Values() {
		if v > p {
			p = v
		}
	}
	return p
}

// Sparkline renders the series as a coarse text plot for CLI output.
func (ts *TimeSeries) Sparkline(width int) string {
	vals := ts.Values()
	if len(vals) == 0 {
		return ""
	}
	// Downsample to width by taking window maxima.
	if width <= 0 {
		width = 60
	}
	ds := make([]float64, width)
	for i, v := range vals {
		j := i * width / len(vals)
		if v > ds[j] {
			ds[j] = v
		}
	}
	peak := 0.0
	for _, v := range ds {
		if v > peak {
			peak = v
		}
	}
	glyphs := []rune(" .:-=+*#%@")
	var b strings.Builder
	for _, v := range ds {
		g := 0
		if peak > 0 {
			g = int(v / peak * float64(len(glyphs)-1))
		}
		b.WriteRune(glyphs[g])
	}
	return b.String()
}
