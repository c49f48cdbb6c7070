package mpisim

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"testing"
	"time"
)

// TestCutRangeNilFallsBack: a nil cuts vector is the uniform slab — the
// contract that keeps default gangs byte-identical to pre-elastic runs.
func TestCutRangeNilFallsBack(t *testing.T) {
	for r := 0; r < 3; r++ {
		wantLo, wantHi := Slab(10, r, 3)
		gotLo, gotHi := CutRange(nil, r, 10, 3)
		if gotLo != wantLo || gotHi != wantHi {
			t.Fatalf("rank %d: nil cuts [%d,%d), want slab [%d,%d)", r, gotLo, gotHi, wantLo, wantHi)
		}
	}
}

// TestWeightedCutsProportional: rows follow throughput weights, cover
// [0, n) exactly, and a 4x-slower rank gets roughly a quarter the rows.
func TestWeightedCutsProportional(t *testing.T) {
	const n = 256
	cuts := WeightedCuts(n, []float64{1, 1, 1, 0.25})
	if err := ValidCuts(cuts, n, 4); err != nil {
		t.Fatal(err)
	}
	rows := make([]int, 4)
	for i := range rows {
		rows[i] = cuts[i+1] - cuts[i]
	}
	// Ideal shares: 256/3.25 ≈ 78.8 per fast rank, 19.7 for the slow one.
	for i := 0; i < 3; i++ {
		if rows[i] < 77 || rows[i] > 81 {
			t.Fatalf("fast rank %d rows = %d, want ≈79 (cuts %v)", i, rows[i], cuts)
		}
	}
	if rows[3] < 18 || rows[3] > 21 {
		t.Fatalf("slow rank rows = %d, want ≈20 (cuts %v)", rows[3], cuts)
	}
}

// TestWeightedCutsMinOneRow: extreme weights cannot starve a rank to a
// zero-width slab while n >= size — a stalled rank must keep producing
// timing samples so the next round can rehabilitate it.
func TestWeightedCutsMinOneRow(t *testing.T) {
	cuts := WeightedCuts(100, []float64{1000, 1, 1e-9, 1e-9})
	if err := ValidCuts(cuts, 100, 4); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if cuts[i+1]-cuts[i] < 1 {
			t.Fatalf("rank %d starved: cuts %v", i, cuts)
		}
	}
}

// TestWeightedCutsDegenerateWeights: zeros, NaN and Inf entries fall back
// to the smallest positive weight (or uniform when none is), never panic,
// and always produce a valid vector.
func TestWeightedCutsDegenerateWeights(t *testing.T) {
	cases := [][]float64{
		{0, 0, 0},
		{math.NaN(), 1, 1},
		{math.Inf(1), 2, 2},
		{-1, -2, -3},
		{0, math.NaN(), math.Inf(1)},
	}
	for _, w := range cases {
		cuts := WeightedCuts(30, w)
		if err := ValidCuts(cuts, 30, len(w)); err != nil {
			t.Fatalf("weights %v: %v (cuts %v)", w, err, cuts)
		}
	}
	// All-degenerate weights mean uniform: equal thirds.
	cuts := WeightedCuts(30, []float64{0, 0, 0})
	for i := 0; i < 3; i++ {
		if cuts[i+1]-cuts[i] != 10 {
			t.Fatalf("all-zero weights not uniform: %v", cuts)
		}
	}
}

// TestWeightedCutsDeterministic: same inputs, same cuts — the rebalancer
// must be replayable.
func TestWeightedCutsDeterministic(t *testing.T) {
	w := []float64{3, 1, 2, 1}
	first := WeightedCuts(97, w)
	for i := 0; i < 10; i++ {
		got := WeightedCuts(97, w)
		for j := range first {
			if got[j] != first[j] {
				t.Fatalf("run %d: cuts %v != %v", i, got, first)
			}
		}
	}
}

// TestValidCutsRejects: wrong length, bad span and non-monotone
// boundaries are all structured errors.
func TestValidCutsRejects(t *testing.T) {
	if err := ValidCuts([]int{0, 5, 10}, 10, 3); err == nil {
		t.Fatal("wrong-length cuts accepted")
	}
	if err := ValidCuts([]int{1, 5, 10}, 10, 2); err == nil {
		t.Fatal("cuts not starting at 0 accepted")
	}
	if err := ValidCuts([]int{0, 5, 9}, 10, 2); err == nil {
		t.Fatal("cuts not ending at n accepted")
	}
	if err := ValidCuts([]int{0, 7, 5, 10}, 10, 3); err == nil {
		t.Fatal("non-monotone cuts accepted")
	}
	if err := ValidCuts([]int{0, 5, 10}, 10, 2); err != nil {
		t.Fatalf("valid cuts rejected: %v", err)
	}
}

// TestCarriedLoadRebalances: a load armed by CarryLoad rides the next
// allgather of either kind without touching what it gathers, every rank
// ends with the same loads and cuts, and an unarmed gather carries none.
func TestCarriedLoadRebalances(t *testing.T) {
	const n = 12
	compute := []time.Duration{time.Millisecond, time.Millisecond, 4 * time.Millisecond}
	w := LocalGangs(3, time.Microsecond)
	defer w.Close()
	var mu sync.Mutex
	got := make([][]int, 3)
	err := w.Run(func(r *Gang) error {
		r.CarryLoad(compute[r.ID()])
		blob := []byte{byte(r.ID()), 7, 7} // not a whole number of floats
		blobs, err := AllgatherBytes(r, blob)
		if err != nil {
			return err
		}
		for p, b := range blobs {
			if len(b) != 3 || b[0] != byte(p) {
				return fmt.Errorf("rank %d: blob %d = %v", r.ID(), p, b)
			}
		}
		cuts, l, err := Rebalance(r, nil, n)
		if err != nil {
			return err
		}
		if !l.Resharded || !slices.Equal(l.Compute, compute) || !slices.Equal(l.Rows, []int{4, 4, 4}) {
			return fmt.Errorf("rank %d: load %+v", r.ID(), l)
		}
		r.CarryLoad(compute[r.ID()])
		lo, hi := CutRange(cuts, r.ID(), n, r.Size())
		x := make([]float64, hi-lo)
		all := make([]float64, n)
		if k, err := AllgatherFloats(r, x, all); err != nil || k != n {
			return fmt.Errorf("rank %d: gathered %d floats: %v", r.ID(), k, err)
		}
		if _, l, err = Rebalance(r, cuts, n); err != nil {
			return err
		}
		mu.Lock()
		got[r.ID()] = append(cuts, l.Rows...)
		mu.Unlock()
		if k, err := AllgatherFloats(r, x, all); err != nil || k != n {
			return fmt.Errorf("rank %d: an unarmed gather gathered %d floats: %v", r.ID(), k, err)
		}
		if _, _, err := Rebalance(r, cuts, n); err == nil {
			return fmt.Errorf("rank %d: rebalanced on loads no gather carried", r.ID())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for r := range got {
		if !slices.Equal(got[r], got[0]) {
			t.Fatalf("rank %d agreed %v, rank 0 %v", r, got[r], got[0])
		}
	}
	if got[0][3] != n || got[0][4]+got[0][5]+got[0][6] != n || got[0][6] >= 4 {
		t.Fatalf("cuts and rows %v: the slow rank kept its slab", got[0])
	}
}
