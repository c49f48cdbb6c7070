package trace

import (
	"fmt"
	"math/bits"
	"time"
)

// The observability plane's histogram core: a streaming fixed-bucket
// histogram over non-negative int64 samples (latencies in nanoseconds,
// blob sizes). Buckets are powers of two, so recording is a
// bits.Len64 — no floating point, no allocation — and two histograms
// recorded anywhere in the system merge by adding counts bucket-wise.
// Quantile estimates return the upper bound of the bucket holding the
// rank, which bounds the estimate within a factor of two of the exact
// sample quantile (the property the hist tests check).

// HistBuckets is the fixed bucket count: bucket 0 holds zero (and
// negative, clamped) samples, buckets 1..62 hold samples v with
// bits.Len64(v) == i (i.e. v in [2^(i-1), 2^i)), and bucket 63 is the
// overflow bucket for samples at or beyond 2^62.
const HistBuckets = 64

// histOverflow is the index of the overflow bucket.
const histOverflow = HistBuckets - 1

// Histogram is a streaming fixed-bucket histogram. The zero value is
// ready to use. Record is not safe for concurrent use — the Recorder
// stripes access across shards; see calls.go.
type Histogram struct {
	Count   uint64
	Sum     int64
	Min     int64 // valid when Count > 0
	Max     int64
	Buckets [HistBuckets]uint64
}

// histBucket maps a sample to its bucket index.
func histBucket(v int64) int {
	if v <= 0 {
		return 0
	}
	b := bits.Len64(uint64(v))
	if b > histOverflow-1 {
		return histOverflow
	}
	return b
}

// BucketBound returns the inclusive upper bound of bucket i (0 for the
// zero bucket). The overflow bucket has no finite bound; it reports the
// largest value the penultimate bucket excludes.
func BucketBound(i int) int64 {
	if i <= 0 {
		return 0
	}
	if i >= histOverflow {
		i = histOverflow
	}
	return int64(1)<<uint(i) - 1
}

// Record folds one sample in. Negative samples clamp to zero.
func (h *Histogram) Record(v int64) {
	if v < 0 {
		v = 0
	}
	h.Buckets[histBucket(v)]++
	if h.Count == 0 || v < h.Min {
		h.Min = v
	}
	if v > h.Max {
		h.Max = v
	}
	h.Count++
	h.Sum += v
}

// Merge folds another histogram's samples into h. Merging the histograms
// of two sample streams is equivalent (bucket-exact) to recording the
// concatenated stream.
func (h *Histogram) Merge(o *Histogram) {
	if o.Count == 0 {
		return
	}
	if h.Count == 0 || o.Min < h.Min {
		h.Min = o.Min
	}
	if o.Max > h.Max {
		h.Max = o.Max
	}
	h.Count += o.Count
	h.Sum += o.Sum
	for i := range h.Buckets {
		h.Buckets[i] += o.Buckets[i]
	}
}

// Sub removes a previously-snapshotted prefix from h, leaving the
// histogram of the samples recorded since the snapshot (Min/Max stay
// those of the full stream — order statistics do not subtract).
func (h *Histogram) Sub(prev *Histogram) {
	h.Count -= prev.Count
	h.Sum -= prev.Sum
	for i := range h.Buckets {
		h.Buckets[i] -= prev.Buckets[i]
	}
}

// Quantile estimates the q-quantile (0 <= q <= 1) of the recorded
// samples: the upper bound of the bucket containing the rank, capped at
// Max, which is at or above the exact sample quantile and within a factor
// of two of it. The overflow bucket reports Max (exact for the stream
// maximum). Returns 0 for an empty histogram.
func (h *Histogram) Quantile(q float64) int64 {
	if h.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	// Rank of the q-quantile in the sorted stream (nearest-rank, 0-based).
	rank := uint64(q * float64(h.Count-1))
	var cum uint64
	for i, c := range h.Buckets {
		cum += c
		if cum > rank {
			if i == histOverflow {
				return h.Max
			}
			return min(BucketBound(i), h.Max)
		}
	}
	return h.Max
}

// fmtDur renders a nanosecond histogram value compactly for tables.
func fmtDur(ns int64) string {
	return time.Duration(ns).Round(time.Microsecond).String()
}

// summary renders "p50/p99/max" of a duration-valued histogram.
func (h *Histogram) summary() string {
	return fmt.Sprintf("%s/%s/%s", fmtDur(h.Quantile(0.5)), fmtDur(h.Quantile(0.99)), fmtDur(h.Max))
}
