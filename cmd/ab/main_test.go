package main

import "testing"

// TestQuartiles: the quartiles of 1…10 and of a single run, as Python's
// statistics.quantiles(n=4) and the benchmark's own statistics give them.
func TestQuartiles(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{4, 1, 3, 2}, [3]float64{1.25, 2.5, 3.75}},
		{[]float64{7}, [3]float64{7, 7, 7}},
	} {
		if got := quartiles(c.xs); got != c.want {
			t.Fatalf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}
