package main

import (
	"testing"
	"time"
)

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

// TestSlowFlagsASpeedChange: a pair is flagged when one side's reference
// readings, before and after its run, or the two sides' means differ by
// more than the fraction — and not when every reading moves together.
func TestSlowFlagsASpeedChange(t *testing.T) {
	ms := func(b0, b1, c0, c1 float64) [2][2]time.Duration {
		d := func(x float64) time.Duration { return time.Duration(x * float64(time.Millisecond)) }
		return [2][2]time.Duration{{d(b0), d(b1)}, {d(c0), d(c1)}}
	}
	for _, c := range []struct {
		name string
		ref  [2][2]time.Duration
		want bool
	}{
		{"steady", ms(150, 152, 149, 151), false},
		{"within the fraction", ms(150, 170, 160, 165), false},
		{"slow throughout", ms(250, 255, 248, 252), false},
		{"base slowed during its run", ms(150, 180, 150, 151), true},
		{"change sped up during its run", ms(150, 151, 200, 150), true},
		{"sides apart", ms(150, 150, 180, 180), true},
		{"sides apart, the other way", ms(200, 200, 150, 150), true},
	} {
		if got := slow(c.ref, 0.15); got != c.want {
			t.Errorf("%s %v: slow = %v, want %v", c.name, c.ref, got, c.want)
		}
	}
}
