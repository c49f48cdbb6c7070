package mpisim

import (
	"math"
	"testing"
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
