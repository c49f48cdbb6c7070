package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func TestMedianAndQuartiles(t *testing.T) {
	// Expected values are Python's statistics.quantiles(xs, n=4) and
	// statistics.median(xs).
	for _, c := range []struct {
		xs          []float64
		q1, med, q3 float64
	}{
		{[]float64{5, 1, 4, 2, 3}, 1.5, 3, 4.5},
		{[]float64{10, 20, 30, 40}, 12.5, 25, 37.5},
		{[]float64{9, 7, 8, 1, 2, 3, 4, 5, 6, 10}, 2.75, 5.5, 8.25},
		{[]float64{2, 2, 2}, 2, 2, 2},
	} {
		q1, med, q3 := quartiles(c.xs)
		if !near(q1, c.q1) || !near(med, c.med) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, med, q3, c.q1, c.med, c.q3)
		}
		if m := median(c.xs); !near(m, c.med) {
			t.Errorf("median(%v) = %v, want %v", c.xs, m, c.med)
		}
	}
	if q1, med, q3 := quartiles(nil); q1 != 0 || med != 0 || q3 != 0 {
		t.Errorf("quartiles of nothing = %v %v %v, want zeros", q1, med, q3)
	}
	if m := mean([]float64{1, 2, 6}); !near(m, 3) {
		t.Errorf("mean = %v, want 3", m)
	}
}

// ramp returns 1..n, so that a nearest-rank percentile is its own rank.
func ramp(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[n-1-i] = float64(i + 1)
	}
	return xs
}

func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n          int
		pct, value float64
	}{
		{8, 50, 4},           // too few for any tail: the median
		{39, 50, 20},         // p75 would leave 9 beyond
		{40, 75, 30},         // p75 leaves exactly 10
		{100, 90, 90},        // p95 would leave 5
		{200, 95, 190},       // p99 would leave 2
		{1000, 99, 990},      // p99.9 would leave 1
		{33333, 99.9, 33300}, // p99.99 would leave 3
	} {
		pct, value := tail(ramp(c.n))
		if pct != c.pct || value != c.value {
			t.Errorf("tail of %d samples = p%v %v, want p%v %v", c.n, pct, value, c.pct, c.value)
		}
	}
}

func TestQuietQuartile(t *testing.T) {
	// 160 samples make 20 blocks of 8. All cost 100 except that block 3 is
	// quiet (its lower half costs 40) and the rest carry a slow op each.
	xs := make([]float64, 160)
	for i := range xs {
		xs[i] = 100
		if i%8 == 7 {
			xs[i] = 900
		}
	}
	for i := 24; i < 28; i++ {
		xs[i] = 40
	}
	if got := quietQuartile(xs); got != 40 {
		t.Errorf("quietQuartile = %v, want the quiet block's 40", got)
	}
	// Fewer than sixteen samples are one block: its lower quartile.
	if got, want := quietQuartile([]float64{5, 1, 4, 2, 3}), 1.5; !near(got, want) {
		t.Errorf("quietQuartile of five = %v, want %v", got, want)
	}
}
