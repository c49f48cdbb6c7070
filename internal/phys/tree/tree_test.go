package tree

import (
	"context"
	"math"
	"testing"
	"time"

	"jungle/internal/amuse/data"
	"jungle/internal/amuse/ic"
	"jungle/internal/vtime"
)

func gpu() *vtime.Device {
	return &vtime.Device{Name: "9600gt", Kind: vtime.GPU, Gflops: 60, Cores: 1,
		LaunchLatency: 50 * time.Microsecond}
}

func cpu() *vtime.Device {
	return &vtime.Device{Name: "core2", Kind: vtime.CPU, Gflops: 1, Cores: 4}
}

// directField computes the exact field for comparison.
func directField(mass []float64, pos []data.Vec3, targets []data.Vec3, eps float64) ([]data.Vec3, []float64) {
	acc := make([]data.Vec3, len(targets))
	pot := make([]float64, len(targets))
	eps2 := eps * eps
	for i, p := range targets {
		for j := range mass {
			dp := pos[j].Sub(p)
			r2 := dp.Norm2() + eps2
			if r2 == 0 {
				continue
			}
			r := math.Sqrt(r2)
			mr3 := mass[j] / (r * r * r)
			acc[i] = acc[i].Add(dp.Scale(mr3))
			pot[i] -= mass[j] / r
		}
	}
	return acc, pot
}

func TestTreeMassConservation(t *testing.T) {
	p := ic.Plummer(500, 1)
	tr := Build(p.Mass, p.Pos)
	if m := tr.nodes[0].mass; math.Abs(m-1) > 1e-12 {
		t.Fatalf("tree mass = %v", m)
	}
	if len(tr.nodes) < 10 {
		t.Fatalf("tree too shallow: %d nodes", len(tr.nodes))
	}
}

func TestTreeMatchesDirectSummation(t *testing.T) {
	p := ic.Plummer(800, 2)
	targets := make([]data.Vec3, 50)
	for i := range targets {
		targets[i] = p.Pos[i*16]
	}
	k := NewFi(cpu())
	k.Theta = 0.5
	acc, pot, flops := k.FieldAt(context.Background(), p.Mass, p.Pos, targets, 0.01)
	dacc, dpot := directField(p.Mass, p.Pos, targets, 0.01)
	if flops <= 0 {
		t.Fatal("no flops accounted")
	}
	for i := range targets {
		relA := acc[i].Sub(dacc[i]).Norm() / dacc[i].Norm()
		if relA > 0.02 {
			t.Fatalf("target %d: tree acc off by %v", i, relA)
		}
		relP := math.Abs((pot[i] - dpot[i]) / dpot[i])
		if relP > 0.02 {
			t.Fatalf("target %d: tree pot off by %v", i, relP)
		}
	}
}

func TestThetaZeroIsExact(t *testing.T) {
	// With theta=0 every interaction opens to the leaves: body sums equal
	// direct summation up to rounding.
	p := ic.Plummer(200, 3)
	targets := p.Pos[:20]
	k := NewFi(cpu())
	k.Theta = 0
	acc, _, _ := k.FieldAt(context.Background(), p.Mass, p.Pos, targets, 0.01)
	dacc, _ := directField(p.Mass, p.Pos, targets, 0.01)
	for i := range targets {
		if rel := acc[i].Sub(dacc[i]).Norm() / dacc[i].Norm(); rel > 1e-10 {
			t.Fatalf("theta=0 target %d off by %v", i, rel)
		}
	}
}

func TestLargerThetaFewerFlops(t *testing.T) {
	p := ic.Plummer(1000, 4)
	targets := p.Pos[:100]
	loose := NewOctgrav(gpu())
	loose.Theta = 1.0
	tight := NewOctgrav(gpu())
	tight.Theta = 0.2
	_, _, fLoose := loose.FieldAt(context.Background(), p.Mass, p.Pos, targets, 0.01)
	_, _, fTight := tight.FieldAt(context.Background(), p.Mass, p.Pos, targets, 0.01)
	if fLoose >= fTight {
		t.Fatalf("theta=1.0 flops %v not below theta=0.2 flops %v", fLoose, fTight)
	}
}

// TestOctgravFiIdentical is the Multi-Kernel property for the coupling
// models: Octgrav (GPU) and Fi (CPU) produce identical results at equal
// theta.
func TestOctgravFiIdentical(t *testing.T) {
	p := ic.Plummer(600, 5)
	targets := p.Pos[:64]
	a := NewOctgrav(gpu())
	b := NewFi(cpu())
	accA, potA, _ := a.FieldAt(context.Background(), p.Mass, p.Pos, targets, 0.02)
	accB, potB, _ := b.FieldAt(context.Background(), p.Mass, p.Pos, targets, 0.02)
	for i := range targets {
		for d := 0; d < 3; d++ {
			if math.Float64bits(accA[i][d]) != math.Float64bits(accB[i][d]) {
				t.Fatalf("acc[%d][%d] differs between octgrav and fi", i, d)
			}
		}
		if math.Float64bits(potA[i]) != math.Float64bits(potB[i]) {
			t.Fatalf("pot[%d] differs", i)
		}
	}
	if a.Name() == b.Name() {
		t.Fatal("kernels share a name")
	}
	if a.dev.Kind != vtime.GPU || b.dev.Kind != vtime.CPU {
		t.Fatal("kernel devices wrong")
	}
}

func TestEmptyAndSingleBody(t *testing.T) {
	tr := Build(nil, nil)
	if len(tr.nodes) != 0 {
		t.Fatal("empty tree has mass")
	}
	acc := make([]data.Vec3, 1)
	pot := make([]float64, 1)
	if f := tr.Accel([]data.Vec3{{1, 2, 3}}, 0.1, 0.6, acc, pot); f != 0 {
		t.Fatal("empty tree produced interactions")
	}

	one := data.NewParticles(1)
	one.Mass[0] = 2
	one.Pos[0] = data.Vec3{1, 0, 0}
	tr = Build(one.Mass, one.Pos)
	tr.Accel([]data.Vec3{{0, 0, 0}}, 0, 0.6, acc, pot)
	if math.Abs(acc[0][0]-2) > 1e-12 {
		t.Fatalf("single body acc = %v, want 2 toward +x", acc[0])
	}
	if math.Abs(pot[0]+2) > 1e-12 {
		t.Fatalf("single body pot = %v, want -2", pot[0])
	}
}

func TestCoincidentBodies(t *testing.T) {
	// Bodies at the same position must not recurse forever or produce NaN
	// at a softened target.
	n := 20
	p := data.NewParticles(n)
	for i := 0; i < n; i++ {
		p.Mass[i] = 1
		p.Pos[i] = data.Vec3{1, 1, 1}
	}
	tr := Build(p.Mass, p.Pos)
	acc := make([]data.Vec3, 1)
	pot := make([]float64, 1)
	tr.Accel([]data.Vec3{{0, 0, 0}}, 0.1, 0.6, acc, pot)
	if math.IsNaN(acc[0].Norm()) || math.IsNaN(pot[0]) {
		t.Fatal("NaN from coincident bodies")
	}
	if math.Abs(tr.nodes[0].mass-float64(n)) > 1e-12 {
		t.Fatalf("mass = %v", tr.nodes[0].mass)
	}
}

func TestSelfFieldMomentumBalance(t *testing.T) {
	// Newton's third law approximately holds for the tree field evaluated
	// at the sources themselves: Σ m·a ≈ 0.
	p := ic.Plummer(400, 6)
	k := NewFi(cpu())
	acc, _, _ := k.FieldAt(context.Background(), p.Mass, p.Pos, p.Pos, 0.01)
	var net data.Vec3
	for i := range acc {
		net = net.Add(acc[i].Scale(p.Mass[i]))
	}
	// Tree approximation breaks exact antisymmetry; the residual must be
	// small compared to the typical |a| ~ 1 scale.
	if net.Norm() > 0.02 {
		t.Fatalf("net momentum flux %v", net.Norm())
	}
}
