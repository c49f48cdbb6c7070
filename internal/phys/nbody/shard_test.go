package nbody

import (
	"context"
	"math"
	"testing"
	"time"

	"jungle/internal/amuse/ic"
	"jungle/internal/mpisim"
)

// TestForcesSlabMatchesFull: slab rows of the interaction matrix equal
// the full evaluation's bit for bit, for both kernel variants and uneven
// slabs.
func TestForcesSlabMatchesFull(t *testing.T) {
	stars := ic.Plummer(101, 7)
	for _, k := range []Kernel{NewCPUKernel(cpuDev()), NewGPUKernel(gpuDev())} {
		var full, slab Forces
		k.ForcesSlab(stars.Mass, stars.Pos, stars.Vel, 1e-4, 0, stars.Len(), &full)
		slab.resize(len(stars.Mass))
		var flops float64
		for rank := 0; rank < 3; rank++ {
			lo, hi := mpisim.Slab(len(stars.Mass), rank, 3)
			flops += k.ForcesSlab(stars.Mass, stars.Pos, stars.Vel, 1e-4, lo, hi, &slab)
		}
		for i := range full.Acc {
			if full.Acc[i] != slab.Acc[i] || full.Jerk[i] != slab.Jerk[i] || full.Pot[i] != slab.Pot[i] {
				t.Fatalf("%s: row %d differs between full and slab evaluation", k.Name(), i)
			}
		}
		if want := FlopsPerPair * float64(len(stars.Mass)) * float64(len(stars.Mass)-1); flops != want {
			t.Fatalf("%s: slab flops %v, want %v", k.Name(), flops, want)
		}
	}
}

// runRanks evolves one replicated System per rank of a local gang and
// returns the rank systems (all bitwise identical afterwards).
func runRanks(t *testing.T, size int, evolveTo float64) []*System {
	t.Helper()
	stars := ic.Plummer(64, 11)
	systems := make([]*System, size)
	for i := range systems {
		systems[i] = NewSystem(NewCPUKernel(cpuDev()), 0.01)
		systems[i].SetParticles(stars)
	}
	err := mpisim.LocalGangs(size, 50*time.Microsecond).Run(func(g *mpisim.Gang) error {
		_, err := systems[g.ID()].EvolveToComm(context.Background(), evolveTo, g)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return systems
}

// TestShardedEvolutionMatchesSolo: a K-rank gang produces exactly the
// solo integrator's trajectory — domain decomposition is invisible in the
// results, the paper's Multi-Kernel property extended to gangs.
func TestShardedEvolutionMatchesSolo(t *testing.T) {
	const tEnd = 1.0 / 16
	stars := ic.Plummer(64, 11)
	solo := NewSystem(NewCPUKernel(cpuDev()), 0.01)
	solo.SetParticles(stars)
	if err := solo.EvolveTo(context.Background(), tEnd); err != nil {
		t.Fatal(err)
	}
	for _, size := range []int{2, 3} {
		systems := runRanks(t, size, tEnd)
		for rank, sys := range systems {
			if sys.Steps() != solo.Steps() {
				t.Fatalf("size %d rank %d: %d steps, solo took %d", size, rank, sys.Steps(), solo.Steps())
			}
			for i := range solo.Positions() {
				if sys.Positions()[i] != solo.Positions()[i] || sys.Velocities()[i] != solo.Velocities()[i] {
					t.Fatalf("size %d rank %d: particle %d diverged from solo", size, rank, i)
				}
			}
		}
	}
}

// TestShardedEnergyReduce: EnergyComm's cross-rank reduction matches the
// solo energy bit for bit (fixed-order summation).
func TestShardedEnergyReduce(t *testing.T) {
	const size = 3
	stars := ic.Plummer(64, 11)
	solo := NewSystem(NewCPUKernel(cpuDev()), 0.01)
	solo.SetParticles(stars)
	kin0, pot0 := solo.Energy()

	kins := make([]float64, size)
	pots := make([]float64, size)
	err := mpisim.LocalGangs(size, 50*time.Microsecond).Run(func(g *mpisim.Gang) error {
		sys := NewSystem(NewCPUKernel(cpuDev()), 0.01)
		sys.SetParticles(stars)
		var err error
		kins[g.ID()], pots[g.ID()], err = sys.EnergyComm(g)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < size; i++ {
		// The reduction's fixed rank order differs from the solo loop's
		// index order, so allow float slack while requiring all ranks to
		// agree exactly.
		if math.Abs(kins[i]-kin0) > 1e-12*math.Abs(kin0) || math.Abs(pots[i]-pot0) > 1e-12*math.Abs(pot0) {
			t.Fatalf("rank %d energy (%v, %v), solo (%v, %v)", i, kins[i], pots[i], kin0, pot0)
		}
		if kins[i] != kins[0] || pots[i] != pots[0] {
			t.Fatalf("ranks disagree: rank %d (%v, %v) vs rank 0 (%v, %v)", i, kins[i], pots[i], kins[0], pots[0])
		}
	}
}

// TestShardedClockAdvances: sharded evolution charges compute and halo
// exchange to each rank's clock, and a bigger gang spends less virtual
// time per rank (the whole point of sharding).
func TestShardedClockAdvances(t *testing.T) {
	const tEnd = 1.0 / 32
	run := func(size int) time.Duration {
		stars := ic.Plummer(128, 3)
		w := mpisim.LocalGangs(size, 10*time.Microsecond)
		err := w.Run(func(g *mpisim.Gang) error {
			sys := NewSystem(NewCPUKernel(cpuDev()), 0.01)
			sys.SetParticles(stars)
			_, err := sys.EvolveToComm(context.Background(), tEnd, g)
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		return w.MaxTime()
	}
	t2, t4 := run(2), run(4)
	if t2 == 0 || t4 == 0 {
		t.Fatalf("clocks did not advance: K=2 %v, K=4 %v", t2, t4)
	}
	if t4 >= t2 {
		t.Fatalf("K=4 (%v) not faster than K=2 (%v)", t4, t2)
	}
}
