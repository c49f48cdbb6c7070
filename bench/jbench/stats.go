package main

import (
	"math"
	"sort"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// quantile interpolates the p-quantile of an ascending sample at position
// p*(n+1), the rule Python's statistics.quantiles uses, so this benchmark's
// quartiles and the contract's agree. Positions outside the sample clamp
// to its ends. An empty sample yields 0.
func quantile(s []float64, p float64) float64 {
	n := len(s)
	if n == 0 {
		return 0
	}
	pos := p*float64(n+1) - 1
	if pos <= 0 {
		return s[0]
	}
	if pos >= float64(n-1) {
		return s[n-1]
	}
	lo := int(math.Floor(pos))
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(sorted(xs), 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// quartiles returns the first quartile, median and third quartile.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := sorted(xs)
	return quantile(s, 0.25), quantile(s, 0.5), quantile(s, 0.75)
}

// quietBlocks is how many consecutive stretches a run's op times are cut
// into to find the quietest one.
const quietBlocks = 20

// quietQuartile cuts the samples, in the order they were taken, into up to
// quietBlocks consecutive blocks of at least eight, and returns the smallest
// lower quartile of a block: what an op costs in the stretch of the run the
// host disturbed least. Other tenants of a shared host only ever add time,
// in episodes of seconds, so this repeats between runs where the median of
// the whole run does not.
func quietQuartile(xs []float64) float64 {
	blocks := len(xs) / 8
	if blocks > quietBlocks {
		blocks = quietBlocks
	}
	if blocks < 1 {
		blocks = 1
	}
	best := math.Inf(1)
	for b := 0; b < blocks; b++ {
		blk := sorted(xs[b*len(xs)/blocks : (b+1)*len(xs)/blocks])
		if q := quantile(blk, 0.25); q < best {
			best = q
		}
	}
	return best
}

// tailLadder is the percentiles a timing may report as its tail.
var tailLadder = []float64{75, 90, 95, 99, 99.9, 99.99}

// tail returns the highest ladder percentile that still has at least ten
// samples beyond it, and its nearest-rank value: with fewer, a percentile is
// one or two slow ops and does not repeat. Samples too few for any ladder
// entry report the median as percentile 50.
func tail(xs []float64) (pct, value float64) {
	s := sorted(xs)
	n := len(s)
	if n == 0 {
		return 50, 0
	}
	pct = 50
	rank := (n + 1) / 2
	for _, p := range tailLadder {
		r := int(math.Ceil(p / 100 * float64(n)))
		if n-r < 10 {
			break
		}
		pct, rank = p, r
	}
	return pct, s[rank-1]
}
