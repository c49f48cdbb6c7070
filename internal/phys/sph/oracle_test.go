package sph

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"jungle/internal/amuse/data"
	"jungle/internal/amuse/ic"
	"jungle/internal/mpisim"
	"jungle/internal/phys/tree"
	"jungle/internal/vnet"
	"jungle/internal/vtime"
)

// The cell list and the two pair loops as they stood before PR 15, bodies
// verbatim: a map of per-cell slices walked through a closure, Vec3 value
// methods, a square root per candidate. The tests below hold the flat cell
// list and the rewritten loops to them bit for bit.

type oracleGrid struct {
	cell  float64
	inv   float64
	cells map[[3]int32][]int32
}

func oracleBuildGrid(pos []data.Vec3, cell float64) *oracleGrid {
	if cell <= 0 || math.IsNaN(cell) {
		cell = 1
	}
	g := &oracleGrid{cell: cell, inv: 1 / cell, cells: make(map[[3]int32][]int32, len(pos)/4+1)}
	for i, p := range pos {
		k := g.key(p)
		g.cells[k] = append(g.cells[k], int32(i))
	}
	return g
}

func (g *oracleGrid) key(p data.Vec3) [3]int32 {
	return [3]int32{
		int32(math.Floor(p[0] * g.inv)),
		int32(math.Floor(p[1] * g.inv)),
		int32(math.Floor(p[2] * g.inv)),
	}
}

func (g *oracleGrid) forNeighbors(p data.Vec3, fn func(j int32)) {
	c := g.key(p)
	for dx := int32(-1); dx <= 1; dx++ {
		for dy := int32(-1); dy <= 1; dy++ {
			for dz := int32(-1); dz <= 1; dz++ {
				k := [3]int32{c[0] + dx, c[1] + dy, c[2] + dz}
				for _, j := range g.cells[k] {
					fn(j)
				}
			}
		}
	}
}

type oracleState struct {
	g          *Gas
	pos, vel   []data.Vec3
	u, h       []float64
	rho, prs   []float64
	cs         []float64
	acc        []data.Vec3
	dudt       []float64
	cachedGrid *oracleGrid
}

func (st *oracleState) density(lo, hi int) float64 {
	g := st.g
	hmax := 0.0
	for _, hh := range st.h {
		if hh > hmax {
			hmax = hh
		}
	}
	gr := oracleBuildGrid(st.pos, 2*hmax)
	st.cachedGrid = gr
	pairs := 0
	for i := lo; i < hi; i++ {
		var sum float64
		count := 0
		pi := st.pos[i]
		hh := st.h[i]
		gr.forNeighbors(pi, func(j int32) {
			rij := st.pos[j].Sub(pi).Norm()
			if rij < 2*hh {
				sum += g.mass[j] * W(rij, hh)
				count++
			}
		})
		pairs += count
		st.rho[i] = sum
		if st.rho[i] <= 0 {
			st.rho[i] = g.mass[i] * W(0, hh)
		}
		// Adaptive smoothing toward the target neighbor count.
		ratio := float64(g.NTarget) / math.Max(float64(count), 1)
		st.h[i] = clamp(hh*0.5*(1+math.Cbrt(ratio)), g.HMin, g.HMax)
		st.prs[i] = (g.Gamma - 1) * st.rho[i] * st.u[i]
		st.cs[i] = math.Sqrt(g.Gamma * st.prs[i] / st.rho[i])
	}
	return flopsPerDensityPair * float64(pairs)
}

func (st *oracleState) forces(lo, hi int) float64 {
	g := st.g
	gr := st.cachedGrid
	pairs := 0
	for i := lo; i < hi; i++ {
		var a data.Vec3
		var du float64
		pi, vi := st.pos[i], st.vel[i]
		rhoi, prsi, csi, hsml := st.rho[i], st.prs[i], st.cs[i], st.h[i]
		gr.forNeighbors(pi, func(j int32) {
			if int(j) == i {
				return
			}
			dp := pi.Sub(st.pos[j])
			rij := dp.Norm()
			hm := 0.5 * (hsml + st.h[j])
			if rij >= 2*hm || rij == 0 {
				return
			}
			dv := vi.Sub(st.vel[j])
			dw := DW(rij, hm)
			gradW := dp.Scale(dw / rij)

			// Monaghan viscosity for approaching pairs.
			var visc float64
			vr := dv.Dot(dp)
			if vr < 0 {
				mu := hm * vr / (rij*rij + 0.01*hm*hm)
				cm := 0.5 * (csi + st.cs[j])
				rm := 0.5 * (rhoi + st.rho[j])
				visc = (-g.Alpha*cm*mu + g.Beta*mu*mu) / rm
			}
			common := prsi/(rhoi*rhoi) + st.prs[j]/(st.rho[j]*st.rho[j]) + visc
			a = a.Sub(gradW.Scale(g.mass[j] * common))
			du += 0.5 * g.mass[j] * common * dv.Dot(gradW)
			pairs++
		})
		st.acc[i] = a
		st.dudt[i] = du
	}
	flops := flopsPerForcePair * float64(pairs)

	if g.SelfGravity && len(g.mass) > 1 {
		tr := tree.Build(g.mass, st.pos)
		gacc := make([]data.Vec3, hi-lo)
		gpot := make([]float64, hi-lo)
		flops += tr.Accel(st.pos[lo:hi], g.EpsGrav, g.Theta, gacc, gpot)
		for i := lo; i < hi; i++ {
			st.acc[i] = st.acc[i].Add(gacc[i-lo])
		}
	}
	return flops
}

// newOracleState is newState for the oracle loops.
func newOracleState(g *Gas) *oracleState {
	n := len(g.mass)
	return &oracleState{g: g,
		pos: append([]data.Vec3(nil), g.pos...), vel: append([]data.Vec3(nil), g.vel...),
		u: append([]float64(nil), g.u...), h: append([]float64(nil), g.h...),
		rho: make([]float64, n), prs: make([]float64, n), cs: make([]float64, n),
		acc: make([]data.Vec3, n), dudt: make([]float64, n)}
}

// oracleEvolve is the serial driver over the oracle loops (the parent's
// evolve with its communicator branches taken out), writing the result back
// into g.
func oracleEvolve(g *Gas, t float64) {
	n := len(g.mass)
	st := newOracleState(g)
	timestep := (&state{g: g, vel: st.vel, h: st.h, cs: st.cs, acc: st.acc}).timestep
	flops := st.density(0, n)
	flops += st.forces(0, n)
	time, steps := g.time, 0
	for time < t-1e-15 {
		dt := timestep(0, n)
		if time+dt > t {
			dt = t - time
		}
		for i := 0; i < n; i++ {
			st.vel[i] = st.vel[i].Add(st.acc[i].Scale(dt / 2))
			st.u[i] = math.Max(st.u[i]+st.dudt[i]*dt/2, 1e-12)
			st.pos[i] = st.pos[i].Add(st.vel[i].Scale(dt))
		}
		f := st.density(0, n)
		f += st.forces(0, n)
		for i := 0; i < n; i++ {
			st.vel[i] = st.vel[i].Add(st.acc[i].Scale(dt / 2))
			st.u[i] = math.Max(st.u[i]+st.dudt[i]*dt/2, 1e-12)
		}
		flops += f
		time += dt
		steps++
	}
	copy(g.pos, st.pos)
	copy(g.vel, st.vel)
	copy(g.u, st.u)
	copy(g.h, st.h)
	copy(g.rho, st.rho)
	copy(g.prs, st.prs)
	copy(g.cs, st.cs)
	g.time = time
	g.steps += steps
	g.flops += flops
}

// oracleGases are the inputs the loops are compared over: the benchmark's
// embedded-cluster gas with a few particles thrown far out (large cells, long
// candidate lists), three of them past 2³¹ cells (their cell coordinates
// overflow and their neighbourhoods wrap), a uniform sphere with random
// velocities, smoothing lengths and energies, and clumps of coincident
// points (zero separations).
func oracleGases(t *testing.T, seed int64) map[string]*data.Particles {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	_, cluster, err := ic.EmbeddedCluster(ic.ClusterSpec{Stars: 1, Gas: 300 + rng.Intn(300), GasFrac: 0.9, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 4; k++ {
		i := rng.Intn(cluster.Len())
		cluster.Pos[i] = cluster.Pos[i].Scale(math.Pow(10, 1+2*rng.Float64()))
	}
	cluster.Pos[rng.Intn(cluster.Len())] = data.Vec3{3e9, -7e9, 1 + rng.Float64()}
	cluster.Pos[rng.Intn(cluster.Len())] = data.Vec3{rng.Float64(), 2e9, -5e9}
	cluster.Pos[rng.Intn(cluster.Len())] = data.Vec3{rng.Float64(), 2e9 + 1, 5e9}

	uniform := ic.UniformSphere(200+rng.Intn(300), 1, 1, seed)
	clumps := ic.UniformSphere(240, 1, 1, seed+1)
	for _, p := range []*data.Particles{uniform, clumps} {
		for i := range p.Pos {
			p.Vel[i] = data.Vec3{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}.Scale(0.3)
			p.InternalEnergy[i] = 0.01 + rng.Float64()
			p.SmoothingLen[i] = 0.05 + 0.3*rng.Float64()
		}
	}
	for i := range clumps.Pos {
		if i%6 != 0 {
			clumps.Pos[i] = clumps.Pos[i-i%6]
		}
	}
	return map[string]*data.Particles{"cluster-outliers": cluster, "uniform": uniform, "coincident": clumps}
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

func bitsEqual(a, b []float64) int {
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i
		}
	}
	return -1
}

func vecBitsEqual(a, b []data.Vec3) int {
	for i := range a {
		for d := 0; d < 3; d++ {
			if math.Float64bits(a[i][d]) != math.Float64bits(b[i][d]) {
				return i
			}
		}
	}
	return -1
}

// sameGas compares everything an evolve publishes.
func sameGas(t *testing.T, what string, got, want *Gas) {
	t.Helper()
	for _, c := range []struct {
		name string
		at   int
	}{
		{"pos", vecBitsEqual(got.pos, want.pos)}, {"vel", vecBitsEqual(got.vel, want.vel)},
		{"u", bitsEqual(got.u, want.u)}, {"h", bitsEqual(got.h, want.h)}, {"rho", bitsEqual(got.rho, want.rho)},
		{"prs", bitsEqual(got.prs, want.prs)}, {"cs", bitsEqual(got.cs, want.cs)},
	} {
		if c.at >= 0 {
			t.Fatalf("%s: %s differs from the oracle at particle %d", what, c.name, c.at)
		}
	}
	if got.time != want.time || got.steps != want.steps || got.flops != want.flops {
		t.Fatalf("%s: time %v steps %d flops %v, oracle %v %d %v", what, got.time, got.steps, got.flops, want.time, want.steps, want.flops)
	}
}

func newGas(t *testing.T, p *data.Particles, selfGravity bool) *Gas {
	t.Helper()
	g := New()
	g.SelfGravity = selfGravity
	if err := g.SetParticles(p); err != nil {
		t.Fatal(err)
	}
	return g
}

// TestPairLoopsMatchOracle runs one density and one force pass of both
// implementations over the whole domain and over an inner slab.
func TestPairLoopsMatchOracle(t *testing.T) {
	exactArithmetic(t)
	for seed := int64(1); seed <= 3; seed++ {
		for name, p := range oracleGases(t, seed) {
			for _, selfGravity := range []bool{true, false} {
				n := p.Len()
				for _, slab := range [][2]int{{0, n}, {n / 3, n/3 + n/4}} {
					what := fmt.Sprintf("%s seed %d gravity %v rows %v", name, seed, selfGravity, slab)
					g := newGas(t, p, selfGravity)
					lo, hi := slab[0], slab[1]
					want := newOracleState(g)
					got := newState(g, lo, hi, false)
					if gf, wf := got.density(lo, hi), want.density(lo, hi); gf != wf {
						t.Fatalf("%s: density flops %v, oracle %v", what, gf, wf)
					}
					// The force pass reads every particle's density, as after
					// the scalar exchange: fill in the rows outside the slab.
					rest := newOracleState(g)
					rest.density(0, n)
					for _, st := range []struct{ rho, prs, cs, h []float64 }{
						{got.rho, got.prs, got.cs, got.h}, {want.rho, want.prs, want.cs, want.h}} {
						for i := 0; i < n; i++ {
							if i < lo || i >= hi {
								st.rho[i], st.prs[i], st.cs[i], st.h[i] = rest.rho[i], rest.prs[i], rest.cs[i], rest.h[i]
							}
						}
					}
					if gf, wf := got.forces(lo, hi), want.forces(lo, hi); gf != wf {
						t.Fatalf("%s: force flops %v, oracle %v", what, gf, wf)
					}
					for _, c := range []struct {
						name string
						at   int
					}{
						{"rho", bitsEqual(got.rho, want.rho)}, {"prs", bitsEqual(got.prs, want.prs)},
						{"cs", bitsEqual(got.cs, want.cs)}, {"h", bitsEqual(got.h, want.h)},
						{"dudt", bitsEqual(got.dudt, want.dudt)}, {"acc", vecBitsEqual(got.acc, want.acc)},
					} {
						if c.at >= 0 {
							t.Fatalf("%s: %s differs from the oracle at particle %d", what, c.name, c.at)
						}
					}
				}
			}
		}
	}
}

func testWorld(t *testing.T, ranks int) *mpisim.World {
	t.Helper()
	net := vnet.New()
	c, err := net.AddCluster(vnet.ClusterSpec{Name: "das4", Site: "vu", Nodes: ranks,
		FrontendPolicy: vnet.Open, NodePolicy: vnet.Open})
	if err != nil {
		t.Fatal(err)
	}
	w, err := mpisim.NewWorld(net, c.NodeName)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.Close)
	return w
}

// TestEvolveMatchesOracle: six EvolveTo calls, serially, over worlds of 1, 3
// and 8 goroutine ranks and over a gang of 3 with uneven cuts, all publish
// what the oracle's serial driver publishes.
func TestEvolveMatchesOracle(t *testing.T) {
	exactArithmetic(t)
	dev := &vtime.Device{Name: "node", Kind: vtime.CPU, Gflops: 5, Cores: 8}
	ctx := context.Background()
	for name, p := range oracleGases(t, 5) {
		for _, selfGravity := range []bool{true, false} {
			what := fmt.Sprintf("%s gravity %v", name, selfGravity)
			want := newGas(t, p, selfGravity)
			serial := newGas(t, p, selfGravity)
			worlds := map[int]*Gas{1: newGas(t, p, selfGravity), 3: newGas(t, p, selfGravity), 8: newGas(t, p, selfGravity)}
			const gangSize = 3
			gangs := mpisim.LocalGangs(gangSize, 20*time.Microsecond)
			n := p.Len()
			cuts := []int{0, n / 7, n / 7, n} // an empty slab in the middle
			ranks := make([]*Gas, gangSize)
			for i := range ranks {
				ranks[i] = newGas(t, p, selfGravity)
				if err := ranks[i].SetCuts(cuts, gangSize); err != nil {
					t.Fatal(err)
				}
			}
			for call := 1; call <= 6; call++ {
				end := float64(call) * 0.002
				oracleEvolve(want, end)
				if err := serial.EvolveTo(ctx, end); err != nil {
					t.Fatal(err)
				}
				sameGas(t, fmt.Sprintf("%s call %d serial", what, call), serial, want)
				for size, g := range worlds {
					if err := g.EvolveToParallel(ctx, end, testWorld(t, size), dev); err != nil {
						t.Fatal(err)
					}
					if size > 1 {
						g.flops = want.flops // rank 0's share times the size, as for the gang below
					}
					sameGas(t, fmt.Sprintf("%s call %d world of %d", what, call, size), g, want)
				}
				errs := make([]error, gangSize)
				var wg sync.WaitGroup
				for i := range ranks {
					wg.Add(1)
					go func(i int) {
						defer wg.Done()
						errs[i] = ranks[i].EvolveToComm(ctx, end, gangs[i], dev)
					}(i)
				}
				wg.Wait()
				if err := errors.Join(errs...); err != nil {
					t.Fatal(err)
				}
				for i, g := range ranks {
					// A rank reports the communicator's flops as size times its
					// own, which differs between ranks with uneven slabs.
					g.flops = want.flops
					sameGas(t, fmt.Sprintf("%s call %d gang rank %d", what, call, i), g, want)
				}
			}
			if want.steps < 6 {
				t.Fatalf("%s: only %d steps taken", what, want.steps)
			}
		}
	}
}

// TestEarlyRejectNeverChangesTheTest: whenever a squared distance is above
// rejectAbove(r), the exact test the loops would have made rejects it too —
// at r² exactly, ulps either side of it, and for radii too small or too
// large to square.
func TestEarlyRejectNeverChangesTheTest(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	radii := []float64{0, 1e-170, 1e-155, 0x1p-500, 0x1p-499, 1e-4, 0.2, 1, 3, 1e150, 1e160, math.Inf(1), math.NaN(), -1}
	for k := 0; k < 2000; k++ {
		radii = append(radii, math.Pow(10, 8*rng.Float64()-6))
	}
	fired := 0
	for _, r := range radii {
		far := rejectAbove(r)
		near := r * r
		for step := 0; step < 64; step++ {
			near = math.Nextafter(near, 0)
		}
		for step := 0; step < 160; step++ {
			r2 := near
			near = math.Nextafter(near, math.Inf(1))
			if r2 > far {
				fired++
				if rij := math.Sqrt(r2); rij < r {
					t.Fatalf("r = %v: d² = %v is above the bound %v but √d² = %v is inside the support", r, r2, far, rij)
				}
			}
		}
	}
	if fired == 0 {
		t.Fatal("the bound never fired within 96 ulps of r²")
	}
}

// TestSupportBoundaryCounts puts a neighbour at exactly r = 2h and one ulp
// either side of it, along an axis and along a diagonal, and requires the
// density pass to count what the oracle counts — the early reject sits one
// comparison before that test.
func TestSupportBoundaryCounts(t *testing.T) {
	exactArithmetic(t)
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 300; trial++ {
		h := math.Pow(10, 4*rng.Float64()-3)
		dir := data.Vec3{1, 0, 0}
		if trial%2 == 1 {
			dir = data.Vec3{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
			dir = dir.Scale(1 / dir.Norm())
		}
		for ulps := -2; ulps <= 2; ulps++ {
			d := 2 * h
			for k := 0; k < ulps; k++ {
				d = math.Nextafter(d, math.Inf(1))
			}
			for k := 0; k > ulps; k-- {
				d = math.Nextafter(d, 0)
			}
			p := data.NewParticles(2)
			p.Pos[1] = dir.Scale(d)
			for i := 0; i < 2; i++ {
				p.Mass[i], p.InternalEnergy[i], p.SmoothingLen[i] = 1, 1, h
			}
			g := newGas(t, p, false)
			g.HMin, g.HMax = 1e-9, 1e9
			got := newState(g, 0, 2, false)
			want := newOracleState(g)
			gf, wf := got.density(0, 2), want.density(0, 2)
			if gf != wf || bitsEqual(got.rho, want.rho) >= 0 || bitsEqual(got.h, want.h) >= 0 {
				t.Fatalf("h %v, neighbour at 2h%+d ulps along %v: %v pairs rho %v, oracle %v pairs rho %v",
					h, ulps, dir, gf/flopsPerDensityPair, got.rho, wf/flopsPerDensityPair, want.rho)
			}
			if ulps < 0 && trial%2 == 0 && wf != 4*flopsPerDensityPair {
				t.Fatalf("h %v: a neighbour %d ulps inside 2h was not counted", h, -ulps)
			}
			if ulps >= 0 && trial%2 == 0 && wf != 2*flopsPerDensityPair {
				t.Fatalf("h %v: a neighbour %d ulps outside 2h was counted", h, ulps)
			}
		}
	}
}

// badGather is rank 1 of 2 as seen by an evolve whose root sends back
// gathers of the wrong length: it swallows sends and answers the k-th
// receive with sizes[k] zeros.
type badGather struct {
	clock *vtime.Clock
	sizes []int
	k     int
}

func (c *badGather) ID() int                { return 1 }
func (c *badGather) Size() int              { return 2 }
func (c *badGather) Clock() *vtime.Clock    { return c.clock }
func (c *badGather) Send(int, []byte) error { return nil }
func (c *badGather) Recv(from int) ([]byte, error) {
	if c.k >= len(c.sizes) {
		return nil, errors.New("script exhausted")
	}
	c.k++
	return make([]byte, 8*c.sizes[c.k-1]), nil
}

// TestExchangeRejectsBadGather: a gather one float short or one float long —
// a rank resharded under the others, a truncated message — used to be copied
// in as far as it went (scalars) or indexed past the arrays (vectors). It is
// a structured error now, and the gas keeps its state.
func TestExchangeRejectsBadGather(t *testing.T) {
	gas := gasSphere(t, 60)
	n := gas.Len()
	dev := &vtime.Device{Name: "node", Kind: vtime.CPU, Gflops: 5, Cores: 8}
	// What rank 1 receives, in order: four scalar gathers and the force
	// gather of the priming pass, the timestep reduction, the state gather.
	good := []int{n, n, n, n, 4 * n, 1, 7 * n}
	for _, c := range []struct {
		at   int
		what string
	}{{0, "scalar"}, {3, "scalar"}, {4, "force"}, {6, "state"}} {
		for _, delta := range []int{-1, +1} {
			sizes := append([]int(nil), good[:c.at+1]...)
			sizes[c.at] += delta
			g := New()
			if err := g.SetParticles(gas); err != nil {
				t.Fatal(err)
			}
			before := append([]data.Vec3(nil), g.pos...)
			err := g.EvolveToComm(context.Background(), 0.01, &badGather{clock: vtime.NewClock(), sizes: sizes}, dev)
			if err == nil || !strings.HasPrefix(err.Error(), "sph: "+c.what+" exchange gathered") {
				t.Fatalf("gather %d off by %+d: error %v, want a sph: %s exchange error", c.at, delta, err, c.what)
			}
			if vecBitsEqual(g.pos, before) >= 0 || g.steps != 0 {
				t.Fatalf("gather %d off by %+d: the failed evolve changed the gas", c.at, delta)
			}
		}
	}
}
