// Package nbody reimplements the paper's gravitational-dynamics model:
// a PhiGRAPE-equivalent direct-summation N-body integrator (4th-order
// Hermite predictor–corrector, Harfst et al. 2006) with two kernels — CPU
// and GPU — that produce bit-identical results but carry different
// performance models. That is the paper's Multi-Kernel property: "which
// kernel is used has no influence in the result of the simulation, but may
// have a dramatic effect on performance".
//
// The same property extends across processes: the integrator also runs
// domain-decomposed as a gang of rank workers (EvolveToComm /
// kernel.Shardable in shard.go), each computing a spatial slab of the
// interaction matrix and exchanging halo force columns over the gang's
// peer links — still bit-identical to the solo integrator, with the
// virtual compute cost divided by the gang size.
package nbody

import (
	"math"
	"runtime"
	"sync"

	"jungle/internal/amuse/data"
	"jungle/internal/vtime"
)

// FlopsPerPair is the accounted flop cost of one force+jerk+potential
// pairwise interaction (the usual ~60 flop figure for Hermite kernels,
// counting the rsqrt as several flops).
const FlopsPerPair = 60

// Forces holds the output of one force evaluation.
type Forces struct {
	Acc  []data.Vec3
	Jerk []data.Vec3
	Pot  []float64 // per-particle potential (for energy diagnostics)
}

func (f *Forces) resize(n int) {
	if cap(f.Acc) < n {
		f.Acc = make([]data.Vec3, n)
		f.Jerk = make([]data.Vec3, n)
		f.Pot = make([]float64, n)
	}
	f.Acc = f.Acc[:n]
	f.Jerk = f.Jerk[:n]
	f.Pot = f.Pot[:n]
}

// Kernel evaluates forces for a particle state. Implementations must be
// deterministic and agree bit-for-bit: the accumulation order over j is
// fixed (ascending), so CPU row-parallelism, GPU tiling and gang slab
// decomposition cannot change results.
type Kernel interface {
	// Name identifies the kernel variant ("phigrape-cpu", "phigrape-gpu").
	Name() string
	// Device returns the performance model used for virtual-time accounting.
	Device() *vtime.Device
	// Forces computes acc, jerk and potential for every particle.
	// It returns the accounted flop count.
	Forces(mass []float64, pos, vel []data.Vec3, eps2 float64, out *Forces) float64
	// ForcesSlab computes rows [lo, hi) of the interaction matrix only —
	// the per-rank share of a domain-decomposed gang. The out slices are
	// sized for the full system; rows outside the slab are left as they
	// were. It returns the accounted flop count for the slab.
	ForcesSlab(mass []float64, pos, vel []data.Vec3, eps2 float64, lo, hi int, out *Forces) float64
}

// rowSums is one particle's running acceleration, jerk and potential.
type rowSums struct {
	ax, ay, az float64
	jx, jy, jz float64
	pot        float64
}

// pairRow adds to s the contributions of particles [j0, j1), in ascending
// order and skipping i itself, on particle i. Shared by both kernels so their
// arithmetic is identical by construction; what differs between them is
// traversal structure and the device model. The sums stay in locals across
// the range and the caller stores them once per row.
func pairRow(mass []float64, pos, vel []data.Vec3, eps2 float64, i, j0, j1 int, s rowSums) rowSums {
	pix, piy, piz := pos[i][0], pos[i][1], pos[i][2]
	vix, viy, viz := vel[i][0], vel[i][1], vel[i][2]
	ax, ay, az := s.ax, s.ay, s.az
	jx, jy, jz := s.jx, s.jy, s.jz
	pot := s.pot
	for j := j0; j < j1; j++ {
		if j == i {
			continue
		}
		pj, vj, mj := &pos[j], &vel[j], mass[j]
		dx, dy, dz := pj[0]-pix, pj[1]-piy, pj[2]-piz
		dvx, dvy, dvz := vj[0]-vix, vj[1]-viy, vj[2]-viz
		r2 := dx*dx + dy*dy + dz*dz + eps2
		r1 := math.Sqrt(r2)
		rinv := 1 / r1
		rinv2 := rinv * rinv
		rinv3 := rinv * rinv2
		mrinv3 := mj * rinv3

		ax += mrinv3 * dx
		ay += mrinv3 * dy
		az += mrinv3 * dz

		rv := (dx*dvx + dy*dvy + dz*dvz) * rinv2 * 3
		jx += mrinv3 * (dvx - rv*dx)
		jy += mrinv3 * (dvy - rv*dy)
		jz += mrinv3 * (dvz - rv*dz)

		pot -= mj * rinv
	}
	return rowSums{ax, ay, az, jx, jy, jz, pot}
}

// store writes a finished row into out.
func (s rowSums) store(out *Forces, i int) {
	out.Acc[i] = data.Vec3{s.ax, s.ay, s.az}
	out.Jerk[i] = data.Vec3{s.jx, s.jy, s.jz}
	out.Pot[i] = s.pot
}

// CPUKernel is the PhiGRAPE CPU variant: rows of the interaction matrix are
// computed in parallel across cores; each row accumulates over j in
// ascending order.
type CPUKernel struct {
	dev *vtime.Device
	// Goroutines caps the worker count (defaults to GOMAXPROCS).
	Goroutines int
}

// NewCPUKernel returns a CPU kernel accounted against dev.
func NewCPUKernel(dev *vtime.Device) *CPUKernel { return &CPUKernel{dev: dev} }

// Name implements Kernel.
func (k *CPUKernel) Name() string { return "phigrape-cpu" }

// Device implements Kernel.
func (k *CPUKernel) Device() *vtime.Device { return k.dev }

// Forces implements Kernel.
func (k *CPUKernel) Forces(mass []float64, pos, vel []data.Vec3, eps2 float64, out *Forces) float64 {
	return k.ForcesSlab(mass, pos, vel, eps2, 0, len(mass), out)
}

// ForcesSlab implements Kernel: rows [lo, hi) are split across cores;
// each row accumulates over all j in ascending order, so slab results
// equal the full evaluation's bit for bit.
func (k *CPUKernel) ForcesSlab(mass []float64, pos, vel []data.Vec3, eps2 float64, lo, hi int, out *Forces) float64 {
	n := len(mass)
	out.resize(n)
	rows := hi - lo
	if rows <= 0 {
		return 0
	}
	workers := k.Goroutines
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > rows {
		workers = rows
	}
	if workers < 1 {
		workers = 1
	}
	var wg sync.WaitGroup
	chunk := (rows + workers - 1) / workers
	for w := 0; w < workers; w++ {
		wlo, whi := lo+w*chunk, lo+(w+1)*chunk
		if whi > hi {
			whi = hi
		}
		if wlo >= whi {
			break
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			for i := lo; i < hi; i++ {
				pairRow(mass, pos, vel, eps2, i, 0, n, rowSums{}).store(out, i)
			}
		}(wlo, whi)
	}
	wg.Wait()
	return FlopsPerPair * float64(rows) * float64(n-1)
}

// gpuTile mirrors the j-tiling of CUDA N-body kernels (shared-memory tiles).
const gpuTile = 256

// GPUKernel is the PhiGRAPE GPU (CUDA) variant: the interaction matrix is
// processed in j-tiles as a GPU would stage bodies through shared memory.
// Tiles iterate in ascending j order, so results equal the CPU kernel's
// bit for bit; only the device performance model differs.
type GPUKernel struct {
	dev *vtime.Device
}

// NewGPUKernel returns a GPU kernel accounted against dev.
func NewGPUKernel(dev *vtime.Device) *GPUKernel { return &GPUKernel{dev: dev} }

// Name implements Kernel.
func (k *GPUKernel) Name() string { return "phigrape-gpu" }

// Device implements Kernel.
func (k *GPUKernel) Device() *vtime.Device { return k.dev }

// Forces implements Kernel.
func (k *GPUKernel) Forces(mass []float64, pos, vel []data.Vec3, eps2 float64, out *Forces) float64 {
	return k.ForcesSlab(mass, pos, vel, eps2, 0, len(mass), out)
}

// ForcesSlab implements Kernel: rows [lo, hi) iterate the j-tiles in
// ascending order, so slab results equal the full evaluation's bit for
// bit.
func (k *GPUKernel) ForcesSlab(mass []float64, pos, vel []data.Vec3, eps2 float64, lo, hi int, out *Forces) float64 {
	n := len(mass)
	out.resize(n)
	rows := hi - lo
	if rows <= 0 {
		return 0
	}
	workers := runtime.GOMAXPROCS(0) // host-side threads standing in for SMs
	if workers > rows {
		workers = rows
	}
	if workers < 1 {
		workers = 1
	}
	var wg sync.WaitGroup
	chunk := (rows + workers - 1) / workers
	for w := 0; w < workers; w++ {
		wlo, whi := lo+w*chunk, lo+(w+1)*chunk
		if whi > hi {
			whi = hi
		}
		if wlo >= whi {
			break
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			for i := lo; i < hi; i++ {
				var s rowSums
				for t0 := 0; t0 < n; t0 += gpuTile {
					t1 := t0 + gpuTile
					if t1 > n {
						t1 = n
					}
					s = pairRow(mass, pos, vel, eps2, i, t0, t1, s)
				}
				s.store(out, i)
			}
		}(wlo, whi)
	}
	wg.Wait()
	return FlopsPerPair * float64(rows) * float64(n-1)
}
