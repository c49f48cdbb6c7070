package sph

import (
	"context"
	"testing"

	"jungle/internal/amuse/ic"
	"jungle/internal/vtime"
)

// TestSPHStepAllocGate: one serial step at N = 1000 allocates its working
// set and cell list once and one flat octree, for the step's own forces
// pass; the priming pass takes the self-gravity the previous call kept. 19
// allocations, where one per working array made 22, two octrees 32 and the
// map-of-slices cell list and the node-by-node octree 1850.
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
	if allocs > 23 {
		t.Fatalf("one SPH step at N=1000: %.0f allocations, want at most 23", allocs)
	}
}

// benchState is a primed slab over the whole of the benchmark-sized gas.
func benchState(b *testing.B) (*slab, int) {
	_, gas, err := ic.EmbeddedCluster(ic.ClusterSpec{Stars: 1, Gas: 1000, GasFrac: 0.9, Seed: 3})
	if err != nil {
		b.Fatal(err)
	}
	g := New()
	if err := g.SetParticles(gas); err != nil {
		b.Fatal(err)
	}
	n := gas.Len()
	st := newSlab(g, 0, n)
	// Two passes settle the smoothing lengths near their adapted values.
	st.density()
	st.density()
	return st, n
}

// candidates counts what a density pass examines, at the smoothing lengths
// it starts from: every particle in the buckets of the cells the search
// visits for the rows it serves, and every particle in the 27 cells of the
// cell list for the rows it leaves to them, which it counts as well.
func (st *slab) candidates() (total, fallback int) {
	s, cl := &st.search, &st.cells
	var runs [27][]int32
	for i, p := range st.pos {
		if lv := s.levelFor(octave(st.h[i])); lv != nil {
			if from, to, ok := s.box(lv, p, 2*st.h[i], rejectAbove(2*st.h[i]), cl); ok {
				for kx := from[0]; kx <= to[0]; kx++ {
					for ky := from[1]; ky <= to[1]; ky++ {
						for kz := from[2]; kz <= to[2]; kz++ {
							b := s.bucket(kx, ky, kz, lv.exp)
							total += int(lv.head[b+1] - lv.head[b])
						}
					}
				}
				continue
			}
		}
		fallback++
		for _, run := range cl.around(cl.key(p), &runs) {
			total += len(run)
		}
	}
	return total, fallback
}

func BenchmarkDensityPass(b *testing.B) {
	st, n := benchState(b)
	h := append([]float64(nil), st.h...)
	b.ReportAllocs()
	b.ResetTimer()
	var flops float64
	for i := 0; i < b.N; i++ {
		copy(st.h, h)
		flops = st.density()
	}
	b.StopTimer()
	copy(st.h, h)
	total, fallback := st.candidates()
	b.ReportMetric(float64(total)/(flops/flopsPerDensityPair), "candidates/accepted")
	b.ReportMetric(float64(fallback)/float64(n), "fallback-rows/row")
}

// BenchmarkForcesPass: the forces pass takes the cell list's 27 cells for
// every row (DESIGN.md § Hot loops, "The neighbour search").
func BenchmarkForcesPass(b *testing.B) {
	st, n := benchState(b)
	st.g.SelfGravity = false // the tree has its own benchmarks
	b.ReportAllocs()
	b.ResetTimer()
	var flops float64
	for i := 0; i < b.N; i++ {
		flops = st.forces()
	}
	var runs [27][]int32
	total := -n
	for _, p := range st.pos {
		for _, run := range st.cells.around(st.cells.key(p), &runs) {
			total += len(run)
		}
	}
	b.ReportMetric(float64(total)/(flops/flopsPerForcePair), "candidates/accepted")
}

// BenchmarkWorldEvolve: one EvolveToParallel step of the coupled step's gas
// (the embedded cluster of seed 1, N = 1000, h settled) over a World of 8,
// whose ranks share one state: each pass builds one cell list, one search
// index and, but in the priming pass, which takes the gravity the previous
// step kept, one octree.
func BenchmarkWorldEvolve(b *testing.B) {
	_, gas, err := ic.EmbeddedCluster(ic.ClusterSpec{Stars: 100, Gas: 1000, GasFrac: 0.9, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	g := New()
	if err := g.SetParticles(gas); err != nil {
		b.Fatal(err)
	}
	w := testWorld(b, 8)
	dev := &vtime.Device{Name: "node", Kind: vtime.CPU, Gflops: 5, Cores: 8}
	ctx := context.Background()
	end := 1e-3 // a few steps settle the smoothing lengths
	if err := g.EvolveToParallel(ctx, end, w, dev); err != nil {
		b.Fatal(err)
	}
	steps := g.steps
	stop := countBuilds()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		end += 1e-6 // far below any timestep: exactly one step per call
		if err := g.EvolveToParallel(ctx, end, w, dev); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	built := stop()
	passes := float64(g.steps - steps + b.N)
	b.ReportMetric(float64(built["cells"])/passes, "cell-lists/pass")
	b.ReportMetric(float64(built["search"])/passes, "searches/pass")
	b.ReportMetric(float64(built["octree"])/passes, "octrees/pass")
}
