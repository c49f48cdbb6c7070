package bridge

import (
	"context"
	"math"
	"strings"
	"testing"
	"time"

	"jungle/internal/amuse/data"
	"jungle/internal/amuse/ic"
	"jungle/internal/phys/nbody"
	"jungle/internal/phys/sph"
	"jungle/internal/phys/stellar"
	"jungle/internal/phys/tree"
	"jungle/internal/vtime"
)

func cpuDev() *vtime.Device {
	return &vtime.Device{Name: "cpu", Kind: vtime.CPU, Gflops: 1, Cores: 4}
}

func gpuDev() *vtime.Device {
	return &vtime.Device{Name: "gpu", Kind: vtime.GPU, Gflops: 100, Cores: 1,
		LaunchLatency: 30 * time.Microsecond}
}

// testSystem builds a small embedded cluster with live nbody + sph models.
func testSystem(t *testing.T, nStars, nGas int) (*nbody.System, *sph.Gas) {
	t.Helper()
	stars, gas, err := ic.EmbeddedCluster(ic.ClusterSpec{
		Stars: nStars, Gas: nGas, GasFrac: 0.7, Seed: 21,
	})
	if err != nil {
		t.Fatal(err)
	}
	grav := nbody.NewSystem(nbody.NewCPUKernel(cpuDev()), 0.01)
	grav.SetParticles(stars)
	hydro := sph.New()
	if nGas > 0 {
		if err := hydro.SetParticles(gas); err != nil {
			t.Fatal(err)
		}
	}
	return grav, hydro
}

func TestNewValidation(t *testing.T) {
	grav, hydro := testSystem(t, 10, 20)
	if _, err := New(Config{Gas: hydro, DT: 0.1}); err != ErrNoStars {
		t.Fatalf("err = %v", err)
	}
	if _, err := New(Config{Stars: grav, DT: 0}); err != ErrBadDT {
		t.Fatalf("err = %v", err)
	}
	if _, err := New(Config{Stars: grav, Gas: hydro, DT: 0.1}); err != ErrNoCoupler {
		t.Fatalf("err = %v", err)
	}
	if _, err := New(Config{Stars: grav, Gas: hydro, DT: 0.1,
		Coupler: tree.NewFi(cpuDev())}); err != nil {
		t.Fatal(err)
	}
}

func TestStarsOnlyMatchesPlainNBody(t *testing.T) {
	stars := ic.Plummer(60, 13)
	a := nbody.NewSystem(nbody.NewCPUKernel(cpuDev()), 0.01)
	a.SetParticles(stars)
	b, err := New(Config{Stars: a, DT: 1.0 / 16})
	if err != nil {
		t.Fatal(err)
	}
	if err := b.EvolveTo(context.Background(), 0.25); err != nil {
		t.Fatal(err)
	}

	ref := nbody.NewSystem(nbody.NewCPUKernel(cpuDev()), 0.01)
	ref.SetParticles(stars)
	// The bridge evolves in DT chunks; EvolveTo in the same chunks is
	// bitwise identical.
	for i := 1; i <= 4; i++ {
		if err := ref.EvolveTo(context.Background(), float64(i)/16); err != nil {
			t.Fatal(err)
		}
	}
	pa, pr := a.Positions(), ref.Positions()
	for i := range pa {
		if pa[i] != pr[i] {
			t.Fatalf("bridge-without-gas diverged at particle %d", i)
		}
	}
}

func TestCoupledEnergyConservation(t *testing.T) {
	grav, hydro := testSystem(t, 40, 200)
	b, err := New(Config{
		Stars: grav, Gas: hydro, Coupler: tree.NewFi(cpuDev()),
		DT: 1.0 / 64, Eps: 0.05,
	})
	if err != nil {
		t.Fatal(err)
	}
	total := func() float64 {
		ks, us := grav.Energy()
		kg, tg, ug := hydro.Energy()
		return ks + us + kg + tg + ug + b.CrossPotential(context.Background())
	}
	e0 := total()
	if err := b.EvolveTo(context.Background(), 0.125); err != nil {
		t.Fatal(err)
	}
	e1 := total()
	if rel := math.Abs((e1 - e0) / e0); rel > 0.05 {
		t.Fatalf("coupled energy drift %v", rel)
	}
	if b.Steps() != 8 {
		t.Fatalf("steps = %d", b.Steps())
	}
}

func TestCallSequenceMatchesFig7(t *testing.T) {
	// E6: one bridge step must produce the Fig. 7 calling sequence:
	// half kick (field evals + kicks), parallel evolve, half kick; stellar
	// evolution only on the n-th step.
	grav, hydro := testSystem(t, 10, 30)
	var calls []string
	b, err := New(Config{
		Stars: grav, Gas: hydro, Coupler: tree.NewOctgrav(gpuDev()),
		DT: 1.0 / 32, Eps: 0.05, StellarEvery: 2,
		Trace: func(c string) { calls = append(calls, c) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Step(context.Background()); err != nil {
		t.Fatal(err)
	}
	want := []string{
		"bridge.step",
		"coupler.field gas->stars", "coupler.field stars->gas",
		"stars.kick", "gas.kick",
		"stars.evolve", // runs in parallel with gas.evolve (same line)
		"coupler.field gas->stars", "coupler.field stars->gas",
		"stars.kick", "gas.kick",
	}
	if len(calls) != len(want) {
		t.Fatalf("got %d calls:\n%s", len(calls), strings.Join(calls, "\n"))
	}
	for i, prefix := range want {
		if !strings.HasPrefix(calls[i], prefix) {
			t.Fatalf("call %d = %q, want prefix %q", i, calls[i], prefix)
		}
	}
	// The parallel evolve line mentions both models.
	if !strings.Contains(calls[5], "gas.evolve") {
		t.Fatalf("evolve call not parallel: %q", calls[5])
	}
	// Step 2 triggers stellar evolution (StellarEvery=2) — with no stellar
	// model configured nothing is appended, so configure one below instead.
	calls = nil
	pop, err := stellar.NewPopulation(stellar.New(), []float64{5, 10})
	if err != nil {
		t.Fatal(err)
	}
	ad, err := NewSSEAdapter(pop, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	b2grav, b2hydro := testSystem(t, 2, 30)
	b2, err := New(Config{
		Stars: b2grav, Gas: b2hydro, Coupler: tree.NewOctgrav(gpuDev()),
		DT: 1.0 / 32, Eps: 0.05, StellarEvery: 2, Stellar: ad,
		Trace: func(c string) { calls = append(calls, c) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := b2.Step(context.Background()); err != nil {
		t.Fatal(err)
	}
	for _, c := range calls {
		if strings.HasPrefix(c, "stellar.evolve") {
			t.Fatal("stellar evolved on step 1 with StellarEvery=2")
		}
	}
	calls = nil
	if err := b2.Step(context.Background()); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, c := range calls {
		if strings.HasPrefix(c, "stellar.evolve") {
			found = true
		}
	}
	if !found {
		t.Fatal("stellar did not evolve on the n-th step")
	}
}

func TestStellarMassLossReachesDynamics(t *testing.T) {
	// A 25 MSun star explodes within the run; its dynamical mass must drop.
	grav, hydro := testSystem(t, 3, 20)
	masses := []float64{25, 1, 1}
	// Use unit scales that make the massive star explode almost
	// immediately: MS lifetime of 25 MSun ~ 3.2 Myr; with 10 Myr per time
	// unit one bridge step of 1/4 covers it.
	pop, err := stellar.NewPopulation(stellar.New(), masses)
	if err != nil {
		t.Fatal(err)
	}
	ad, err := NewSSEAdapter(pop, 10, 0.01) // 10 Myr per unit; 0.01 nbody per MSun
	if err != nil {
		t.Fatal(err)
	}
	m0 := grav.Masses()[0]
	b, err := New(Config{
		Stars: grav, Gas: hydro, Coupler: tree.NewFi(cpuDev()),
		DT: 0.25, Eps: 0.05, StellarEvery: 1, Stellar: ad,
		SNEnergy: 0.05, SNRadius: 0.3,
	})
	if err != nil {
		t.Fatal(err)
	}
	_, th0, _ := hydro.Energy()
	if err := b.EvolveTo(context.Background(), 1.0); err != nil {
		t.Fatal(err)
	}
	if got := grav.Masses()[0]; got >= m0 {
		t.Fatalf("massive star mass %v did not drop from %v", got, m0)
	}
	if b.Supernovae() == 0 {
		t.Fatal("no supernova recorded")
	}
	if _, th1, _ := hydro.Energy(); th1 <= th0 {
		t.Fatalf("supernova energy not injected: %v -> %v", th0, th1)
	}
}

func TestSSEAdapterValidation(t *testing.T) {
	pop, err := stellar.NewPopulation(stellar.New(), []float64{1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewSSEAdapter(pop, 0, 1); err == nil {
		t.Fatal("zero time scale accepted")
	}
	if _, err := NewSSEAdapter(pop, 1, -1); err == nil {
		t.Fatal("negative mass scale accepted")
	}
}

func TestGasExpulsionStages(t *testing.T) {
	// A miniature E5: heat drives the gas out; the bound gas fraction must
	// fall and the cluster must expand — the Fig. 6 progression.
	if testing.Short() {
		t.Skip("long physics test")
	}
	grav, hydro := testSystem(t, 30, 300)
	masses := make([]float64, 30)
	for i := range masses {
		masses[i] = 1
	}
	masses[0], masses[1] = 25, 22 // two exploders
	pop, err := stellar.NewPopulation(stellar.New(), masses)
	if err != nil {
		t.Fatal(err)
	}
	ad, err := NewSSEAdapter(pop, 5, 0.005)
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(Config{
		Stars: grav, Gas: hydro, Coupler: tree.NewFi(cpuDev()),
		DT: 1.0 / 16, Eps: 0.05, StellarEvery: 2, Stellar: ad,
		SNEnergy: 0.5, SNRadius: 0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := b.EvolveTo(context.Background(), 1.5); err != nil {
		t.Fatal(err)
	}
	if b.Supernovae() < 2 {
		t.Fatalf("supernovae = %d", b.Supernovae())
	}
	// Gas mean radius must exceed the stars' (gas blown out).
	gasR := meanNorm(hydro.Positions())
	starR := meanNorm(grav.Positions())
	if gasR < starR {
		t.Fatalf("gas (r=%v) not expelled beyond stars (r=%v)", gasR, starR)
	}
}

func meanNorm(ps []data.Vec3) float64 {
	var sum float64
	for _, p := range ps {
		sum += p.Norm()
	}
	if len(ps) == 0 {
		return 0
	}
	return sum / float64(len(ps))
}
