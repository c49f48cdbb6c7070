package nbody

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"jungle/internal/amuse/data"
	"jungle/internal/amuse/ic"
)

// The pair interaction and row loops as they stood before pairRow (PR 15),
// bodies verbatim: Vec3 value methods and sums added through pointers. The
// tests below hold every kernel and slab to them bit for bit.

func oraclePairInteraction(mj float64, dp, dv data.Vec3, eps2 float64,
	acc, jerk *data.Vec3, pot *float64) {
	r2 := dp.Norm2() + eps2
	// r^-3 via sqrt; identical instruction sequence in both kernels.
	r1 := math.Sqrt(r2)
	rinv := 1 / r1
	rinv2 := rinv * rinv
	rinv3 := rinv * rinv2
	mrinv3 := mj * rinv3

	acc[0] += mrinv3 * dp[0]
	acc[1] += mrinv3 * dp[1]
	acc[2] += mrinv3 * dp[2]

	rv := dp.Dot(dv) * rinv2 * 3
	jerk[0] += mrinv3 * (dv[0] - rv*dp[0])
	jerk[1] += mrinv3 * (dv[1] - rv*dp[1])
	jerk[2] += mrinv3 * (dv[2] - rv*dp[2])

	*pot -= mj * rinv
}

func oracleForces(mass []float64, pos, vel []data.Vec3, eps2 float64, out *Forces) float64 {
	n := len(mass)
	out.resize(n)
	for i := 0; i < n; i++ {
		var acc, jerk data.Vec3
		var pot float64
		pi, vi := pos[i], vel[i]
		for j := 0; j < n; j++ {
			if j == i {
				continue
			}
			dp := pos[j].Sub(pi)
			dv := vel[j].Sub(vi)
			oraclePairInteraction(mass[j], dp, dv, eps2, &acc, &jerk, &pot)
		}
		out.Acc[i] = acc
		out.Jerk[i] = jerk
		out.Pot[i] = pot
	}
	return FlopsPerPair * float64(n) * float64(n-1)
}

// exactArithmetic skips a bit-for-bit comparison off amd64: where the
// compiler fuses a multiply into an add (arm64, ppc64le, s390x, riscv64) two
// spellings of one expression may round differently.
func exactArithmetic(t *testing.T) {
	t.Helper()
	if runtime.GOARCH != "amd64" {
		t.Skip("bit-for-bit comparison needs unfused multiply-adds (amd64)")
	}
}

func sameBits(a, b data.Vec3) bool {
	return math.Float64bits(a[0]) == math.Float64bits(b[0]) &&
		math.Float64bits(a[1]) == math.Float64bits(b[1]) &&
		math.Float64bits(a[2]) == math.Float64bits(b[2])
}

func TestKernelsMatchOracle(t *testing.T) {
	exactArithmetic(t)
	for seed := int64(1); seed <= 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		plummer := ic.Plummer(gpuTile+50+rng.Intn(400), seed) // more than one GPU tile
		for k := 0; k < 4; k++ {
			i := rng.Intn(plummer.Len())
			plummer.Pos[i] = plummer.Pos[i].Scale(math.Pow(10, 1+3*rng.Float64()))
		}
		uniform := ic.UniformSphere(100+rng.Intn(200), 1, 1, seed)
		for i := range uniform.Vel {
			uniform.Vel[i] = data.Vec3{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
		}
		coincident := ic.Plummer(64, seed)
		for i := range coincident.Pos {
			if i%4 != 0 {
				coincident.Pos[i] = coincident.Pos[i-i%4]
			}
		}
		for name, p := range map[string]*data.Particles{"plummer-outliers": plummer, "uniform": uniform, "coincident": coincident} {
			for _, eps2 := range []float64{1e-4, 0} {
				var want Forces
				wantFlops := oracleForces(p.Mass, p.Pos, p.Vel, eps2, &want)
				n := p.Len()
				for _, k := range []Kernel{NewCPUKernel(cpuDev()), &CPUKernel{dev: cpuDev(), Goroutines: 3}, NewGPUKernel(gpuDev())} {
					var full, slabs Forces
					flops := k.ForcesSlab(p.Mass, p.Pos, p.Vel, eps2, 0, n, &full)
					if flops != wantFlops {
						t.Fatalf("%s seed %d %s: %v flops, oracle %v", name, seed, k.Name(), flops, wantFlops)
					}
					// Three uneven slabs cover the matrix once.
					var slabFlops float64
					for _, cut := range [][2]int{{0, n / 5}, {n / 5, n/5 + 1}, {n/5 + 1, n}} {
						slabFlops += k.ForcesSlab(p.Mass, p.Pos, p.Vel, eps2, cut[0], cut[1], &slabs)
					}
					if slabFlops != wantFlops {
						t.Fatalf("%s seed %d %s: slabs %v flops, oracle %v", name, seed, k.Name(), slabFlops, wantFlops)
					}
					for i := 0; i < n; i++ {
						for _, got := range []*Forces{&full, &slabs} {
							if !sameBits(got.Acc[i], want.Acc[i]) || !sameBits(got.Jerk[i], want.Jerk[i]) ||
								math.Float64bits(got.Pot[i]) != math.Float64bits(want.Pot[i]) {
								t.Fatalf("%s seed %d eps2 %g %s row %d: acc %v jerk %v pot %v, oracle %v %v %v", name, seed, eps2,
									k.Name(), i, got.Acc[i], got.Jerk[i], got.Pot[i], want.Acc[i], want.Jerk[i], want.Pot[i])
							}
						}
					}
				}
			}
		}
	}
}
