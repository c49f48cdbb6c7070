package trace

import (
	"encoding/binary"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// randomStream builds a sample stream that exercises every bucket regime:
// zeros, small integers, values spread across magnitudes, and (when wide)
// values near the overflow boundary.
func randomStream(rng *rand.Rand, n int, wide bool) []int64 {
	vals := make([]int64, n)
	for i := range vals {
		switch rng.Intn(4) {
		case 0:
			vals[i] = int64(rng.Intn(3)) // 0, 1, 2
		case 1:
			vals[i] = rng.Int63n(1000)
		case 2:
			vals[i] = int64(1) << uint(rng.Intn(40))
		default:
			if wide {
				vals[i] = rng.Int63() // anywhere up to 2^63-1
			} else {
				vals[i] = rng.Int63n(1 << 50)
			}
		}
	}
	return vals
}

// exactQuantile is the nearest-rank quantile Quantile estimates against:
// the element at rank floor(q*(n-1)) of the sorted stream.
func exactQuantile(sorted []int64, q float64) int64 {
	return sorted[int(uint64(q*float64(len(sorted)-1)))]
}

// TestHistQuantileBounds is the core histogram property: for any stream,
// the quantile estimate equals the exact nearest-rank quantile when that
// is 0, and otherwise lies in [exact, 2*exact) — the power-of-two bucket
// bound. Values in the overflow bucket only promise estimate >= exact.
func TestHistQuantileBounds(t *testing.T) {
	quantiles := []float64{0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1}
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		vals := randomStream(rng, 1+rng.Intn(2000), false)
		var h Histogram
		for _, v := range vals {
			h.Record(v)
		}
		sorted := append([]int64(nil), vals...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		for _, q := range quantiles {
			exact := exactQuantile(sorted, q)
			est := h.Quantile(q)
			if exact == 0 {
				if est != 0 {
					t.Fatalf("seed %d q=%v: exact 0 but estimate %d", seed, q, est)
				}
				continue
			}
			if est < exact || est >= 2*exact {
				t.Fatalf("seed %d q=%v: estimate %d outside [%d, %d)", seed, q, est, exact, 2*exact)
			}
		}
	}
}

// TestHistMergeEquivalence: merging the histograms of two streams is
// bucket-exact equivalent to recording the concatenated stream — the
// property that makes per-shard and per-rank histograms roll up honestly.
func TestHistMergeEquivalence(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(100 + seed))
		vals := randomStream(rng, 2+rng.Intn(1000), true)
		cut := rng.Intn(len(vals) + 1)
		var a, b, whole Histogram
		for _, v := range vals[:cut] {
			a.Record(v)
		}
		for _, v := range vals[cut:] {
			b.Record(v)
		}
		for _, v := range vals {
			whole.Record(v)
		}
		a.Merge(&b)
		if !reflect.DeepEqual(a, whole) {
			t.Fatalf("seed %d cut %d: merge(a,b) != record(a++b):\n%+v\n%+v", seed, cut, a, whole)
		}
	}
}

func TestHistMergeEmpty(t *testing.T) {
	var h, empty Histogram
	h.Record(5)
	before := h
	h.Merge(&empty)
	if !reflect.DeepEqual(h, before) {
		t.Fatalf("merging an empty histogram changed h: %+v", h)
	}
	var into Histogram
	into.Merge(&before)
	if !reflect.DeepEqual(into, before) {
		t.Fatalf("merging into an empty histogram != source: %+v vs %+v", into, before)
	}
}

// TestHistZeroBucket: zeros and negatives (clamped) land in bucket 0 and
// every quantile of an all-zero stream is exactly 0.
func TestHistZeroBucket(t *testing.T) {
	var h Histogram
	h.Record(0)
	h.Record(-7)
	h.Record(math.MinInt64)
	if h.Buckets[0] != 3 || h.Count != 3 || h.Sum != 0 || h.Min != 0 || h.Max != 0 {
		t.Fatalf("zero bucket state: %+v", h)
	}
	for _, q := range []float64{0, 0.5, 1} {
		if got := h.Quantile(q); got != 0 {
			t.Fatalf("Quantile(%v) = %d, want 0", q, got)
		}
	}
}

// TestHistOverflowBucket: samples at or beyond 2^62 share the overflow
// bucket, whose quantile reports the exact stream maximum.
func TestHistOverflowBucket(t *testing.T) {
	var h Histogram
	big := []int64{1 << 62, (1 << 62) + 12345, math.MaxInt64}
	for _, v := range big {
		h.Record(v)
	}
	if h.Buckets[histOverflow] != 3 {
		t.Fatalf("overflow bucket holds %d, want 3", h.Buckets[histOverflow])
	}
	if got := h.Quantile(1); got != math.MaxInt64 {
		t.Fatalf("Quantile(1) = %d, want stream max", got)
	}
	if got := h.Quantile(0.5); got != math.MaxInt64 {
		t.Fatalf("Quantile(0.5) in overflow = %d, want Max", got)
	}
	// The penultimate bucket keeps its finite bound; just below the
	// overflow boundary must not spill over.
	var h2 Histogram
	h2.Record(1<<62 - 1)
	if h2.Buckets[histOverflow] != 0 || h2.Buckets[histOverflow-1] != 1 {
		t.Fatalf("2^62-1 bucketed wrong: %v", h2.Buckets)
	}
}

// TestBucketBound: every value's bucket bound contains it, the previous
// bucket's bound excludes it, and out-of-range indices clamp.
func TestBucketBound(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 2000; i++ {
		v := rng.Int63()
		b := histBucket(v)
		if b < histOverflow && v > BucketBound(b) {
			t.Fatalf("v=%d above its bucket %d bound %d", v, b, BucketBound(b))
		}
		if b > 0 && v <= BucketBound(b-1) {
			t.Fatalf("v=%d not above bucket %d's bound %d", v, b-1, BucketBound(b-1))
		}
	}
	if BucketBound(-1) != 0 || BucketBound(0) != 0 {
		t.Fatal("zero bucket bound must be 0")
	}
	if BucketBound(1000) != BucketBound(histOverflow) {
		t.Fatal("out-of-range bucket index must clamp to the overflow bound")
	}
}

// TestHistSub: subtracting a snapshotted prefix leaves exactly the suffix
// stream's counts, sum and buckets (Min/Max stay whole-stream).
func TestHistSub(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		rng := rand.New(rand.NewSource(200 + seed))
		vals := randomStream(rng, 2+rng.Intn(500), true)
		cut := rng.Intn(len(vals) + 1)
		var h Histogram
		for _, v := range vals[:cut] {
			h.Record(v)
		}
		snap := h
		for _, v := range vals[cut:] {
			h.Record(v)
		}
		h.Sub(&snap)
		var suffix Histogram
		for _, v := range vals[cut:] {
			suffix.Record(v)
		}
		if h.Count != suffix.Count || h.Sum != suffix.Sum || h.Buckets != suffix.Buckets {
			t.Fatalf("seed %d: sub left %+v, want suffix %+v", seed, h, suffix)
		}
	}
}

func TestHistQuantileClamps(t *testing.T) {
	var h Histogram
	if h.Quantile(0.5) != 0 {
		t.Fatal("empty quantile must be 0")
	}
	h.Record(100)
	if h.Quantile(-1) != h.Quantile(0) || h.Quantile(2) != h.Quantile(1) {
		t.Fatal("out-of-range q must clamp to [0,1]")
	}
}

// FuzzHistogram decodes the fuzz input as int64 samples and checks the
// structural invariants that must hold for ANY stream: bucket counts sum
// to Count, Sum/Min/Max match the clamped stream, quantiles are monotone
// in q, and every quantile estimate is within the bucket bound of the
// exact nearest-rank value.
func FuzzHistogram(f *testing.F) {
	seed := make([]byte, 0, 64)
	for _, v := range []int64{0, 1, -5, 1000, 1 << 40, 1 << 62, math.MaxInt64} {
		seed = binary.LittleEndian.AppendUint64(seed, uint64(v))
	}
	f.Add(seed)
	f.Add([]byte{1, 2, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		var vals []int64
		for len(data) >= 8 {
			v := int64(binary.LittleEndian.Uint64(data))
			if v < 0 {
				v = 0 // Record clamps; mirror it for the exact comparison
			}
			vals = append(vals, v)
			data = data[8:]
		}
		if len(vals) == 0 {
			return
		}
		var h Histogram
		var sum, min, max int64
		min = math.MaxInt64
		for _, v := range vals {
			h.Record(v)
			sum += v
			if v < min {
				min = v
			}
			if v > max {
				max = v
			}
		}
		var bucketSum uint64
		for _, c := range h.Buckets {
			bucketSum += c
		}
		if bucketSum != h.Count || h.Count != uint64(len(vals)) {
			t.Fatalf("bucket sum %d, count %d, stream %d", bucketSum, h.Count, len(vals))
		}
		if h.Sum != sum || h.Min != min || h.Max != max {
			t.Fatalf("sum/min/max = %d/%d/%d, want %d/%d/%d", h.Sum, h.Min, h.Max, sum, min, max)
		}
		sorted := append([]int64(nil), vals...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		prev := int64(-1)
		for _, q := range []float64{0, 0.25, 0.5, 0.75, 0.9, 1} {
			est := h.Quantile(q)
			if est < prev {
				t.Fatalf("quantile not monotone at q=%v: %d < %d", q, est, prev)
			}
			prev = est
			exact := exactQuantile(sorted, q)
			if exact == 0 && est != 0 {
				t.Fatalf("q=%v: exact 0 but estimate %d", q, est)
			}
			if est < exact {
				t.Fatalf("q=%v: estimate %d below exact %d", q, est, exact)
			}
			// The factor-of-two bound holds below the overflow bucket; the
			// overflow bucket only promises est <= Max.
			if histBucket(exact) < histOverflow && exact > 0 && est >= 2*exact {
				t.Fatalf("q=%v: estimate %d not within 2x of exact %d", q, est, exact)
			}
			if est > h.Max {
				t.Fatalf("q=%v: estimate %d above max %d", q, est, h.Max)
			}
		}
	})
}
