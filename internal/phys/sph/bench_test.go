package sph

import (
	"context"
	"testing"

	"jungle/internal/amuse/ic"
)

// TestSPHStepAllocGate: one serial step at N = 1000 allocates its working
// set and cell list once and two flat octrees: 32 allocations, where the
// map-of-slices cell list and the node-by-node octree made 1850.
func TestSPHStepAllocGate(t *testing.T) {
	g := New()
	if err := g.SetParticles(gasSphere(t, 1000)); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	end := 0.0
	allocs := testing.AllocsPerRun(5, func() {
		end += 1e-6 // far below any timestep: exactly one step per call
		steps := g.steps
		if err := g.EvolveTo(ctx, end); err != nil || g.steps != steps+1 {
			t.Fatalf("EvolveTo: %v, %d steps", err, g.steps-steps)
		}
	})
	if allocs > 40 {
		t.Fatalf("one SPH step at N=1000: %.0f allocations, want at most 40", allocs)
	}
}

// benchState is a primed state over the benchmark-sized gas.
func benchState(b *testing.B) (*state, int) {
	_, gas, err := ic.EmbeddedCluster(ic.ClusterSpec{Stars: 1, Gas: 1000, GasFrac: 0.9, Seed: 3})
	if err != nil {
		b.Fatal(err)
	}
	g := New()
	if err := g.SetParticles(gas); err != nil {
		b.Fatal(err)
	}
	n := gas.Len()
	st := newState(g, 0, n, false)
	// Two passes settle the smoothing lengths near their adapted values.
	st.density(0, n)
	st.density(0, n)
	return st, n
}

// candidates counts what the pair loops walk: every particle in the 27 cells
// around each particle.
func (st *state) candidates() int {
	var runs [27][]int32
	total := 0
	for _, p := range st.pos {
		for _, run := range st.cells.around(st.cells.key(p), &runs) {
			total += len(run)
		}
	}
	return total
}

func BenchmarkDensityPass(b *testing.B) {
	st, n := benchState(b)
	h := append([]float64(nil), st.h...)
	b.ReportAllocs()
	b.ResetTimer()
	var flops float64
	for i := 0; i < b.N; i++ {
		copy(st.h, h)
		flops = st.density(0, n)
	}
	b.ReportMetric(float64(st.candidates())/(flops/flopsPerDensityPair), "candidates/accepted")
}

func BenchmarkForcesPass(b *testing.B) {
	st, n := benchState(b)
	st.g.SelfGravity = false // the tree has its own benchmarks
	b.ReportAllocs()
	b.ResetTimer()
	var flops float64
	for i := 0; i < b.N; i++ {
		flops = st.forces(0, n)
	}
	b.ReportMetric(float64(st.candidates()-n)/(flops/flopsPerForcePair), "candidates/accepted")
}
