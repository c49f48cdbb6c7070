package nbody

import (
	"context"
	"testing"
	"time"

	"jungle/internal/amuse/ic"
	"jungle/internal/core/kernel"
	"jungle/internal/deploy"
	"jungle/internal/mpisim"
	"jungle/internal/vtime"
)

// TestSoloEvolveChargedOnce pins the two accounting rules of a solo
// gravity worker on a GPU (coupled_step's phigrape-gpu on the LGM). An
// evolve advances the worker's clock by exactly one dev.Time of its total
// flops, so it pays the launch latency once per evolve, not once per force
// evaluation. An evolve after energies starts from the forces energies
// left cached, so it charges exactly one force evaluation less.
func TestSoloEvolveChargedOnce(t *testing.T) {
	const n, tEnd = 64, 1.0 / 32
	res := &deploy.Resource{Name: "lgm", Frontend: "lgm", GPU: gpuDev()}
	stars := kernel.Encode(kernel.ParticlesToPayload(ic.Plummer(n, 5)))
	evolve := func(energiesFirst bool) (cost time.Duration, steps int, dev *vtime.Device) {
		svc, err := kernel.New(KindGravity, kernel.Config{Res: res})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(svc.Close)
		var at time.Duration
		call := func(method string, args []byte) time.Duration {
			t.Helper()
			_, done, err := svc.Dispatch(method, args, at)
			if err != nil {
				t.Fatal(err)
			}
			cost := done - at
			at = done
			return cost
		}
		call("setup", kernel.Encode(kernel.SetupGravityArgs{Kernel: "phigrape-gpu", Eps: 0.01}))
		call("set_particles", stars)
		if energiesFirst {
			call("energies", nil)
		}
		cost = call("evolve", kernel.Encode(kernel.EvolveArgs{T: tEnd}))
		s := svc.(*gravityService)
		return cost, s.sys.Steps(), s.dev
	}
	const evalFlops = FlopsPerPair * n * (n - 1)
	alone, steps, dev := evolve(false)
	if steps < 2 {
		t.Fatalf("evolve took %d steps: too few to tell one charge from one per evaluation", steps)
	}
	if want := dev.Time(float64(2*steps)*evalFlops, 0); alone != want {
		t.Fatalf("evolve of %d steps charged %v, want one charge of %d evaluations, %v", steps, alone, 2*steps, want)
	}
	after, stepsAfter, _ := evolve(true)
	if stepsAfter != steps {
		t.Fatalf("evolve after energies took %d steps, alone %d", stepsAfter, steps)
	}
	if want := dev.Time(float64(2*steps-1)*evalFlops, 0); after != want {
		t.Fatalf("evolve after energies charged %v, want one charge of %d evaluations, %v (alone: %v)", after, 2*steps-1, want, alone)
	}
}

// TestEvolveToCommIsEvolveTo: the gang path is the solo evolve at every
// gang size, bit for bit at K = 1 and K = 4 (TestShardedEvolutionMatchesSolo
// holds K = 2 and 3), and a gang of one charges its clock once for the
// evolve's total flops, as a solo worker does.
func TestEvolveToCommIsEvolveTo(t *testing.T) {
	const tEnd = 1.0 / 32
	stars := ic.Plummer(64, 11)
	solo := NewSystem(NewGPUKernel(gpuDev()), 0.01)
	solo.SetParticles(stars)
	if err := solo.EvolveTo(context.Background(), tEnd); err != nil {
		t.Fatal(err)
	}
	flops := solo.ResetFlops()
	for _, size := range []int{1, 4} {
		systems := make([]*System, size)
		w := mpisim.LocalGangs(size, 10*time.Microsecond)
		err := w.Run(func(g *mpisim.Gang) error {
			sys := NewSystem(NewGPUKernel(gpuDev()), 0.01)
			sys.SetParticles(stars)
			systems[g.ID()] = sys
			_, err := sys.EvolveToComm(context.Background(), tEnd, g)
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
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
		if want := gpuDev().Time(flops, 0); size == 1 && w.MaxTime() != want {
			t.Fatalf("gang of one charged %v, want one charge of the evolve's flops, %v", w.MaxTime(), want)
		}
	}
}
