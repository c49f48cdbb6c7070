package sph

import (
	"context"
	"errors"
	"math"
	"sync"
	"testing"
	"time"

	"jungle/internal/amuse/data"
	"jungle/internal/amuse/ic"
	"jungle/internal/mpisim"
	"jungle/internal/vnet"
	"jungle/internal/vtime"
)

func gasSphere(t *testing.T, n int) *data.Particles {
	t.Helper()
	_, gas, err := ic.EmbeddedCluster(ic.ClusterSpec{Stars: 1, Gas: n, GasFrac: 0.9, Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	return gas
}

func TestKernelNormalization(t *testing.T) {
	// ∫ W dV = 1: integrate on a radial grid.
	h := 0.7
	var sum float64
	dr := h / 400
	for r := dr / 2; r < 2*h; r += dr {
		sum += W(r, h) * 4 * math.Pi * r * r * dr
	}
	if math.Abs(sum-1) > 1e-3 {
		t.Fatalf("kernel integral = %v", sum)
	}
}

func TestKernelProperties(t *testing.T) {
	h := 0.5
	if W(0, h) <= 0 {
		t.Fatal("W(0) not positive")
	}
	if W(2*h, h) != 0 || W(3*h, h) != 0 {
		t.Fatal("kernel support exceeds 2h")
	}
	if DW(0.5*h, h) >= 0 {
		t.Fatal("kernel not decreasing")
	}
	if DW(2.5*h, h) != 0 {
		t.Fatal("derivative outside support")
	}
	if W(0.1, 0) != 0 || DW(0.1, 0) != 0 {
		t.Fatal("zero h not handled")
	}
}

func TestGridFindsAllNeighbors(t *testing.T) {
	p := ic.Plummer(300, 9)
	radius := 0.3
	g := newCellList(p.Len())
	g.build(p.Pos, radius)
	var runs [27][]int32
	for i := 0; i < 20; i++ {
		found := map[int32]bool{}
		for _, run := range g.around(g.key(p.Pos[i]), &runs) {
			for _, j := range run {
				found[j] = true
			}
		}
		for j := range p.Pos {
			if p.Pos[j].Sub(p.Pos[i]).Norm() < radius && !found[int32(j)] {
				t.Fatalf("grid missed neighbor %d of %d", j, i)
			}
		}
	}
}

func TestDensityUniformLattice(t *testing.T) {
	// A unit-density cubic lattice: SPH density near the center must be
	// ~1 within kernel bias.
	side := 10
	n := side * side * side
	p := data.NewParticles(n)
	dx := 1.0
	idx := 0
	for x := 0; x < side; x++ {
		for y := 0; y < side; y++ {
			for z := 0; z < side; z++ {
				p.Mass[idx] = dx * dx * dx // unit density
				p.Pos[idx] = data.Vec3{float64(x) * dx, float64(y) * dx, float64(z) * dx}
				p.InternalEnergy[idx] = 1
				p.SmoothingLen[idx] = 1.3 * dx
				idx++
			}
		}
	}
	g := New()
	g.SelfGravity = false
	if err := g.SetParticles(p); err != nil {
		t.Fatal(err)
	}
	st := newState(g, 0, n, false)
	st.density(0, n)
	// Center particle index: (5,5,5).
	ci := 5*side*side + 5*side + 5
	if math.Abs(st.rho[ci]-1) > 0.1 {
		t.Fatalf("lattice center density = %v, want ~1", st.rho[ci])
	}
}

func TestSetParticlesValidation(t *testing.T) {
	p := data.NewParticles(2)
	p.Mass[0], p.Mass[1] = 1, 1
	g := New()
	if err := g.SetParticles(p); err == nil {
		t.Fatal("accepted zero internal energy")
	}
	p.InternalEnergy[0], p.InternalEnergy[1] = 1, 1
	if err := g.SetParticles(p); err == nil {
		t.Fatal("accepted zero smoothing length")
	}
	p.SmoothingLen[0], p.SmoothingLen[1] = 0.1, 0.1
	if err := g.SetParticles(p); err != nil {
		t.Fatal(err)
	}
}

func TestEvolveConservesEnergyShortTerm(t *testing.T) {
	gas := gasSphere(t, 400)
	g := New()
	if err := g.SetParticles(gas); err != nil {
		t.Fatal(err)
	}
	k0, th0, p0 := g.Energy()
	e0 := k0 + th0 + p0
	if err := g.EvolveTo(context.Background(), 0.05); err != nil {
		t.Fatal(err)
	}
	k1, th1, p1 := g.Energy()
	e1 := k1 + th1 + p1
	if rel := math.Abs((e1 - e0) / e0); rel > 0.05 {
		t.Fatalf("energy drift %v over 0.05 time units", rel)
	}
	if g.Steps() == 0 {
		t.Fatal("no steps taken")
	}
	if g.Flops() <= 0 {
		t.Fatal("no flops accounted")
	}
}

func TestPressureExpandsHotSphere(t *testing.T) {
	// Hot gas without gravity must expand: mean radius grows.
	gas := gasSphere(t, 300)
	for i := range gas.InternalEnergy {
		gas.InternalEnergy[i] = 5 // very hot
	}
	g := New()
	g.SelfGravity = false
	if err := g.SetParticles(gas); err != nil {
		t.Fatal(err)
	}
	r0 := meanRadius(g.pos)
	if err := g.EvolveTo(context.Background(), 0.3); err != nil {
		t.Fatal(err)
	}
	r1 := meanRadius(g.pos)
	if r1 <= r0*1.05 {
		t.Fatalf("hot sphere did not expand: %v -> %v", r0, r1)
	}
}

func meanRadius(pos []data.Vec3) float64 {
	var com data.Vec3
	for _, p := range pos {
		com = com.Add(p)
	}
	com = com.Scale(1 / float64(len(pos)))
	var sum float64
	for _, p := range pos {
		sum += p.Sub(com).Norm()
	}
	return sum / float64(len(pos))
}

func TestKickAppliesToAll(t *testing.T) {
	gas := gasSphere(t, 50)
	g := New()
	if err := g.SetParticles(gas); err != nil {
		t.Fatal(err)
	}
	dv := make([]data.Vec3, g.N())
	for i := range dv {
		dv[i] = data.Vec3{0.5, 0, 0}
	}
	if err := g.Kick(context.Background(), dv); err != nil {
		t.Fatal(err)
	}
	if g.Velocities()[7][0] != gas.Vel[7][0]+0.5 {
		t.Fatal("kick not applied")
	}
	if err := g.Kick(context.Background(), dv[:1]); err == nil {
		t.Fatal("short kick accepted")
	}
}

func TestEmptyGas(t *testing.T) {
	g := New()
	if err := g.EvolveTo(context.Background(), 1); err != ErrNoGas {
		t.Fatalf("err = %v", err)
	}
}

// TestParallelMatchesSerial is the key mpisim integration property: the
// slab-parallel run over 4 virtual nodes must produce exactly the serial
// result (the allgather keeps full-array state identical across ranks).
func TestParallelMatchesSerial(t *testing.T) {
	gas := gasSphere(t, 240)

	serial := New()
	if err := serial.SetParticles(gas); err != nil {
		t.Fatal(err)
	}
	if err := serial.EvolveTo(context.Background(), 0.02); err != nil {
		t.Fatal(err)
	}

	net := vnet.New()
	c, err := net.AddCluster(vnet.ClusterSpec{Name: "das4", Site: "vu", Nodes: 4,
		FrontendPolicy: vnet.Open, NodePolicy: vnet.Open})
	if err != nil {
		t.Fatal(err)
	}
	w, err := mpisim.NewWorld(net, c.NodeName)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	dev := &vtime.Device{Name: "node", Kind: vtime.CPU, Gflops: 5, Cores: 8}

	par := New()
	if err := par.SetParticles(gas); err != nil {
		t.Fatal(err)
	}
	if err := par.EvolveToParallel(context.Background(), 0.02, w, dev); err != nil {
		t.Fatal(err)
	}

	if serial.N() != par.N() {
		t.Fatal("size mismatch")
	}
	for i := 0; i < serial.N(); i++ {
		for d := 0; d < 3; d++ {
			if math.Float64bits(serial.pos[i][d]) != math.Float64bits(par.pos[i][d]) {
				t.Fatalf("particle %d dim %d: serial %v vs parallel %v",
					i, d, serial.pos[i][d], par.pos[i][d])
			}
		}
		if math.Float64bits(serial.u[i]) != math.Float64bits(par.u[i]) {
			t.Fatalf("particle %d internal energy differs", i)
		}
	}
	// The parallel run must have advanced every rank's virtual clock.
	if w.MaxTime() == 0 {
		t.Fatal("no virtual time accounted")
	}
}

func TestParallelStepsAccounted(t *testing.T) {
	gas := gasSphere(t, 120)
	net := vnet.New()
	c, err := net.AddCluster(vnet.ClusterSpec{Name: "x", Site: "s", Nodes: 2,
		FrontendPolicy: vnet.Open, NodePolicy: vnet.Open})
	if err != nil {
		t.Fatal(err)
	}
	w, err := mpisim.NewWorld(net, c.NodeName)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	g := New()
	if err := g.SetParticles(gas); err != nil {
		t.Fatal(err)
	}
	dev := &vtime.Device{Name: "node", Kind: vtime.CPU, Gflops: 5, Cores: 8}
	if err := g.EvolveToParallel(context.Background(), 0.01, w, dev); err != nil {
		t.Fatal(err)
	}
	if g.Time() < 0.01-1e-12 {
		t.Fatalf("time = %v", g.Time())
	}
	if g.Steps() == 0 || g.Flops() == 0 {
		t.Fatal("steps/flops not accounted")
	}
}

// TestGangMatchesSerial extends the parallel-equals-serial property to
// gangs: K worker-process ranks, each owning a replicated Gas and
// exchanging slabs over gang links, produce exactly the serial result.
func TestGangMatchesSerial(t *testing.T) {
	gas := gasSphere(t, 240)

	serial := New()
	if err := serial.SetParticles(gas); err != nil {
		t.Fatal(err)
	}
	if err := serial.EvolveTo(context.Background(), 0.02); err != nil {
		t.Fatal(err)
	}

	const size = 3
	gangs := mpisim.LocalGangs(size, 20*time.Microsecond)
	dev := &vtime.Device{Name: "node", Kind: vtime.CPU, Gflops: 5, Cores: 8}
	systems := make([]*Gas, size)
	errs := make([]error, size)
	var wg sync.WaitGroup
	for i := range systems {
		systems[i] = New()
		if err := systems[i].SetParticles(gas); err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = systems[i].EvolveToComm(context.Background(), 0.02, gangs[i], dev)
		}(i)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		t.Fatal(err)
	}
	for rank, par := range systems {
		for i := 0; i < serial.N(); i++ {
			for d := 0; d < 3; d++ {
				if math.Float64bits(serial.pos[i][d]) != math.Float64bits(par.pos[i][d]) {
					t.Fatalf("rank %d particle %d dim %d: serial %v vs gang %v",
						rank, i, d, serial.pos[i][d], par.pos[i][d])
				}
			}
			if math.Float64bits(serial.u[i]) != math.Float64bits(par.u[i]) {
				t.Fatalf("rank %d particle %d internal energy differs", rank, i)
			}
		}
		if gangs[rank].Clock().Now() == 0 {
			t.Fatalf("rank %d: no virtual time accounted", rank)
		}
	}
}
