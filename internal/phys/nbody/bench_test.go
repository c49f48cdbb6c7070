package nbody

import (
	"testing"

	"jungle/internal/amuse/ic"
)

// TestHermiteStepAllocGate: a step allocates the two predictor copies and
// what starting the row workers costs, nothing per row or per pair.
func TestHermiteStepAllocGate(t *testing.T) {
	k := NewCPUKernel(cpuDev())
	k.Goroutines = 2
	s := NewSystem(k, 0.01)
	s.SetParticles(ic.Plummer(200, 3))
	if _, err := s.Step(); err != nil { // sizes the force arrays
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := s.Step(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 16 {
		t.Fatalf("one Hermite step: %.0f allocations, want at most 16", allocs)
	}
}

// BenchmarkPairForces is one force evaluation of the benchmark's star
// cluster: 100 bodies, 9 900 pair interactions.
func BenchmarkPairForces(b *testing.B) {
	p := ic.Plummer(100, 1)
	k := NewCPUKernel(cpuDev())
	var out Forces
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.Forces(p.Mass, p.Pos, p.Vel, 1e-4, &out)
	}
}
