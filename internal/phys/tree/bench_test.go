package tree

import (
	"testing"

	"jungle/internal/amuse/data"
	"jungle/internal/amuse/ic"
)

// TestTreeBuildAllocGate: the tree is its header, the node array, and one
// array holding the body order and the partition scratch — not a slice per
// leaf (823 allocations per 1000-body build before the flat arrays, 4 while
// the scratch was an array of its own). The threaded nodes have no child
// table, so the node array is smaller, not fewer.
func TestTreeBuildAllocGate(t *testing.T) {
	p := ic.Plummer(1000, 7)
	allocs := testing.AllocsPerRun(20, func() { Build(p.Mass, p.Pos) })
	if allocs > 3 {
		t.Fatalf("Build of 1000 bodies: %.0f allocations, want at most 3", allocs)
	}
}

// The coupling evaluation of the benchmark's coupled step: 1000 gas sources
// onto 100 star targets.
func benchField(b *testing.B) (stars, gas *data.Particles) {
	stars, gas, err := ic.EmbeddedCluster(ic.ClusterSpec{Stars: 100, Gas: 1000, GasFrac: 0.9, Seed: 2})
	if err != nil {
		b.Fatal(err)
	}
	return stars, gas
}

func BenchmarkTreeBuild(b *testing.B) {
	_, gas := benchField(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Build(gas.Mass, gas.Pos)
	}
}

func BenchmarkTreeAccel(b *testing.B) {
	stars, gas := benchField(b)
	tr := Build(gas.Mass, gas.Pos)
	acc := make([]data.Vec3, stars.Len())
	pot := make([]float64, stars.Len())
	b.ReportAllocs()
	b.ResetTimer()
	var flops float64
	for i := 0; i < b.N; i++ {
		flops = tr.Accel(stars.Pos, 0.05, 0.6, acc, pot)
	}
	b.ReportMetric(flops/FlopsPerInteraction/float64(stars.Len()), "interactions/target")
}
