package abm

import (
	"math"
	"testing"

	"jungle/internal/wire"
)

func testParams() Params {
	return Params{W: 16, H: 12, D: 0.2, R: 0.5, B: 0.3, DT: 0.01}
}

func seededGrid(t *testing.T, p Params, seed int64) *Grid {
	t.Helper()
	g, err := NewGrid(p)
	if err != nil {
		t.Fatalf("NewGrid: %v", err)
	}
	copy(g.U, InitialU(p, seed))
	for i := range g.Phi {
		g.Phi[i] = 0.1 * float64(i%7)
	}
	return g
}

func TestParamsCheck(t *testing.T) {
	cases := []Params{
		{W: 0, H: 4, DT: 0.1},
		{W: 4, H: 0, DT: 0.1},
		{W: 4, H: 4, DT: 0},
		{W: -1, H: 4, DT: 0.1},
	}
	for _, p := range cases {
		if _, err := NewGrid(p); err == nil {
			t.Errorf("NewGrid(%+v) accepted degenerate params", p)
		}
	}
}

func TestInitialUDeterministicAndBounded(t *testing.T) {
	p := testParams()
	a, b := InitialU(p, 42), InitialU(p, 42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("InitialU not deterministic at %d: %v vs %v", i, a[i], b[i])
		}
		if a[i] < 0 || a[i] >= 1 {
			t.Fatalf("InitialU[%d] = %v outside [0,1)", i, a[i])
		}
	}
	c := InitialU(p, 43)
	same := 0
	for i := range a {
		if a[i] == c[i] {
			same++
		}
	}
	if same == len(a) {
		t.Fatal("seeds 42 and 43 produced identical colonies")
	}
}

// TestSlabRowsPartition checks the decomposition is a disjoint cover with
// near-equal contiguous slabs for every (h, size) shape.
func TestSlabRowsPartition(t *testing.T) {
	for h := 1; h <= 17; h++ {
		for size := 1; size <= 6; size++ {
			covered := 0
			prev := 0
			for rank := 0; rank < size; rank++ {
				lo, hi := SlabRows(h, size, rank)
				if lo != prev {
					t.Fatalf("h=%d size=%d rank=%d: slab [%d,%d) not contiguous after %d", h, size, rank, lo, hi, prev)
				}
				if hi-lo > h/size+1 || hi < lo {
					t.Fatalf("h=%d size=%d rank=%d: slab [%d,%d) unbalanced", h, size, rank, lo, hi)
				}
				covered += hi - lo
				prev = hi
			}
			if covered != h || prev != h {
				t.Fatalf("h=%d size=%d: slabs cover %d rows, end at %d", h, size, covered, prev)
			}
		}
	}
}

// TestSlabStepMatchesSolo runs the same colony solo and as a hand-driven
// K-slab decomposition and requires bitwise-equal generations — the
// property the gang path rests on.
func TestSlabStepMatchesSolo(t *testing.T) {
	p := testParams()
	solo := seededGrid(t, p, 7)
	for _, k := range []int{2, 3, 5} {
		sharded := seededGrid(t, p, 7)
		for step := 0; step < 20; step++ {
			solo.Step()
			for rank := 0; rank < k; rank++ {
				lo, hi := SlabRows(p.H, k, rank)
				sharded.StepRows(lo, hi)
			}
			sharded.Commit()
		}
		for i := range solo.U {
			if solo.U[i] != sharded.U[i] {
				t.Fatalf("K=%d: agent %d diverged: solo %v sharded %v", k, i, solo.U[i], sharded.U[i])
			}
		}
		// reset solo for the next K
		solo = seededGrid(t, p, 7)
	}
}

// TestPackFloatsRoundTrip: a peer's slab crosses bit for bit in
// wire.AppendFloats's bytes, and a truncated float is refused.
func TestPackFloatsRoundTrip(t *testing.T) {
	p := testParams()
	g := seededGrid(t, p, 1)
	row := make([]float64, p.W)
	copy(row, []float64{0, 1, -1, math.Pi, math.Inf(1), math.Copysign(0, -1), 1e-308, math.NaN()})
	if err := g.SpliceRows(2, 3, wire.AppendFloats(nil, row)); err != nil {
		t.Fatalf("SpliceRows: %v", err)
	}
	for i, x := range g.NextRows(2, 3) {
		if math.Float64bits(x) != math.Float64bits(row[i]) {
			t.Fatalf("bit pattern %d changed: %x vs %x", i, math.Float64bits(row[i]), math.Float64bits(x))
		}
	}
	if err := g.SpliceRows(2, 3, make([]byte, 7)); err == nil {
		t.Fatal("SpliceRows accepted a truncated column")
	}
}

// TestSpliceRowsValidates: a part that is not exactly the slab's rows — a
// float short, a row long — is refused.
func TestSpliceRowsValidates(t *testing.T) {
	p := testParams()
	g := seededGrid(t, p, 1)
	for _, n := range []int{8 * (p.W - 1), 8 * 2 * p.W} {
		if err := g.SpliceRows(2, 3, make([]byte, n)); err == nil {
			t.Errorf("SpliceRows accepted a %d-byte part for a %d-float row", n, p.W)
		}
	}
}

func TestGridClockAndStats(t *testing.T) {
	p := testParams()
	g := seededGrid(t, p, 3)
	for i := 0; i < 4; i++ {
		g.Step()
	}
	if g.Steps() != 4 {
		t.Fatalf("Steps() = %d, want 4", g.Steps())
	}
	if want := 4 * p.DT; math.Abs(g.Time()-want) > 1e-15 {
		t.Fatalf("Time() = %v, want %v", g.Time(), want)
	}
	if g.TotalState() <= 0 {
		t.Fatalf("TotalState() = %v, want positive", g.TotalState())
	}
	g.RestoreClock(0.5, 50)
	if g.Time() != 0.5 || g.Steps() != 50 {
		t.Fatalf("RestoreClock: time %v steps %d", g.Time(), g.Steps())
	}
}

func TestCellPosInUnitSquare(t *testing.T) {
	p := testParams()
	for i := 0; i < p.W*p.H; i++ {
		v := CellPos(p, i)
		if v[0] <= -1 || v[0] >= 1 || v[1] <= -1 || v[1] >= 1 || v[2] != 0 {
			t.Fatalf("CellPos(%d) = %v outside (-1,1)² x/y plane", i, v)
		}
	}
}
