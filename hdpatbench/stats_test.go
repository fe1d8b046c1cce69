package main

import (
	"math"
	"testing"
)

func TestTailHasTenSamplesBeyond(t *testing.T) {
	for _, n := range []int{11, 12, 20, 40, 50, 100, 137} {
		xs := make([]float64, n)
		for i := range xs {
			xs[(i*7)%n] = float64(i + 1) // a permutation of 1..n
		}
		v, pct, ok := tail(xs)
		if !ok {
			t.Fatalf("n=%d: no tail", n)
		}
		beyond := 0
		for _, x := range xs {
			if x > v {
				beyond++
			}
		}
		if beyond != tailBeyond {
			t.Errorf("n=%d: %d samples beyond tail %v, want %d", n, beyond, v, tailBeyond)
		}
		if want := 100 * float64(n-tailBeyond) / float64(n); pct != want {
			t.Errorf("n=%d: percentile %v, want %v", n, pct, want)
		}
	}
	if v, pct, _ := tail(seq(50)); v != 40 || pct != 80 {
		t.Errorf("n=50: tail %v at p%v, want 40 at p80", v, pct)
	}
	if v, pct, _ := tail(seq(100)); v != 90 || pct != 90 {
		t.Errorf("n=100: tail %v at p%v, want 90 at p90", v, pct)
	}
	if _, _, ok := tail(seq(tailBeyond)); ok {
		t.Errorf("n=%d: a tail needs more than %d samples", tailBeyond, tailBeyond)
	}
}

func TestMedianAndGeomean(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("odd median %v, want 2", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("even median %v, want 2.5", m)
	}
	if g := geomean([]float64{1, 4, 16}); math.Abs(g-4) > 1e-12 {
		t.Errorf("geomean %v, want 4", g)
	}
	if g := geomean([]float64{2, 0}); g != 0 {
		t.Errorf("geomean with a zero %v, want 0", g)
	}
}

// seq returns 1..n.
func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}
