package nbody

import (
	"context"
	"math"
	"testing"
	"time"

	"jungle/internal/amuse/data"
	"jungle/internal/amuse/ic"
	"jungle/internal/vtime"
)

func cpuDev() *vtime.Device {
	return &vtime.Device{Name: "core2", Kind: vtime.CPU, Gflops: 1.0, Cores: 4}
}

func gpuDev() *vtime.Device {
	return &vtime.Device{Name: "tesla", Kind: vtime.GPU, Gflops: 150, Cores: 1,
		LaunchLatency: 30 * time.Microsecond}
}

// twoBody builds a circular binary: masses m1=m2=0.5 at unit separation.
// With G=1, the circular orbital speed of each body is 0.5·sqrt(2) around
// the COM... more precisely for total mass M=1, separation a=1: relative
// circular velocity v=sqrt(M/a)=1; each body moves at 0.5.
func twoBody() *data.Particles {
	p := data.NewParticles(2)
	p.Mass[0], p.Mass[1] = 0.5, 0.5
	p.Pos[0] = data.Vec3{-0.5, 0, 0}
	p.Pos[1] = data.Vec3{0.5, 0, 0}
	p.Vel[0] = data.Vec3{0, -0.5, 0}
	p.Vel[1] = data.Vec3{0, 0.5, 0}
	return p
}

func TestTwoBodyEnergyConservation(t *testing.T) {
	s := NewSystem(NewCPUKernel(cpuDev()), 0)
	s.Eta = 0.01
	s.SetParticles(twoBody())
	k0, u0 := s.Energy()
	e0 := k0 + u0
	if err := s.EvolveTo(context.Background(), 10); err != nil { // several orbits
		t.Fatal(err)
	}
	k1, u1 := s.Energy()
	e1 := k1 + u1
	if rel := math.Abs((e1 - e0) / e0); rel > 1e-8 {
		t.Fatalf("energy drift %v after 10 time units", rel)
	}
	if math.Abs(s.Time()-10) > 1e-12 {
		t.Fatalf("time = %v", s.Time())
	}
}

func TestTwoBodyPeriod(t *testing.T) {
	// Circular binary with a=1, M=1: period = 2π. After one period the
	// bodies return to their initial positions.
	s := NewSystem(NewCPUKernel(cpuDev()), 0)
	s.Eta = 0.005
	p := twoBody()
	s.SetParticles(p)
	if err := s.EvolveTo(context.Background(), 2*math.Pi); err != nil {
		t.Fatal(err)
	}
	out := p.Clone()
	if err := s.GetParticles(out); err != nil {
		t.Fatal(err)
	}
	for i := range out.Pos {
		if d := out.Pos[i].Sub(p.Pos[i]).Norm(); d > 1e-3 {
			t.Fatalf("body %d displaced %v after one period", i, d)
		}
	}
}

func TestPlummerEnergyConservation(t *testing.T) {
	stars := ic.Plummer(64, 11)
	s := NewSystem(NewCPUKernel(cpuDev()), 0.01)
	s.Eta = 0.01
	s.SetParticles(stars)
	k0, u0 := s.Energy()
	e0 := k0 + u0
	if err := s.EvolveTo(context.Background(), 0.25); err != nil {
		t.Fatal(err)
	}
	k1, u1 := s.Energy()
	if rel := math.Abs((k1 + u1 - e0) / e0); rel > 1e-5 {
		t.Fatalf("energy drift %v", rel)
	}
}

// TestKernelsBitIdentical is the Multi-Kernel property: the CPU and GPU
// kernels must produce exactly the same forces and, after integration,
// exactly the same trajectories.
func TestKernelsBitIdentical(t *testing.T) {
	stars := ic.Plummer(300, 5)
	var fc, fg Forces
	cpu := NewCPUKernel(cpuDev())
	gpu := NewGPUKernel(gpuDev())
	cpu.ForcesSlab(stars.Mass, stars.Pos, stars.Vel, 1e-4, 0, stars.Len(), &fc)
	gpu.ForcesSlab(stars.Mass, stars.Pos, stars.Vel, 1e-4, 0, stars.Len(), &fg)
	for i := range fc.Acc {
		for d := 0; d < 3; d++ {
			if math.Float64bits(fc.Acc[i][d]) != math.Float64bits(fg.Acc[i][d]) {
				t.Fatalf("acc[%d][%d] differs: %x vs %x", i, d, fc.Acc[i][d], fg.Acc[i][d])
			}
			if math.Float64bits(fc.Jerk[i][d]) != math.Float64bits(fg.Jerk[i][d]) {
				t.Fatalf("jerk[%d][%d] differs", i, d)
			}
		}
		if math.Float64bits(fc.Pot[i]) != math.Float64bits(fg.Pot[i]) {
			t.Fatalf("pot[%d] differs", i)
		}
	}

	// And full trajectories.
	s1 := NewSystem(cpu, 0.01)
	s2 := NewSystem(gpu, 0.01)
	s1.SetParticles(stars)
	s2.SetParticles(stars)
	if err := s1.EvolveTo(context.Background(), 0.05); err != nil {
		t.Fatal(err)
	}
	if err := s2.EvolveTo(context.Background(), 0.05); err != nil {
		t.Fatal(err)
	}
	p1, p2 := s1.Positions(), s2.Positions()
	for i := range p1 {
		for d := 0; d < 3; d++ {
			if math.Float64bits(p1[i][d]) != math.Float64bits(p2[i][d]) {
				t.Fatalf("trajectory diverged at particle %d", i)
			}
		}
	}
}

// TestCPUParallelismDeterministic: worker count must not change results.
func TestCPUParallelismDeterministic(t *testing.T) {
	stars := ic.Plummer(128, 3)
	k1 := NewCPUKernel(cpuDev())
	k1.Goroutines = 1
	k8 := NewCPUKernel(cpuDev())
	k8.Goroutines = 8
	var f1, f8 Forces
	k1.ForcesSlab(stars.Mass, stars.Pos, stars.Vel, 1e-4, 0, stars.Len(), &f1)
	k8.ForcesSlab(stars.Mass, stars.Pos, stars.Vel, 1e-4, 0, stars.Len(), &f8)
	for i := range f1.Acc {
		if f1.Acc[i] != f8.Acc[i] {
			t.Fatalf("worker count changed acc[%d]", i)
		}
	}
}

func TestFlopAccounting(t *testing.T) {
	stars := ic.Plummer(50, 1)
	s := NewSystem(NewCPUKernel(cpuDev()), 0.01)
	s.SetParticles(stars)
	if _, err := s.Step(); err != nil {
		t.Fatal(err)
	}
	// One step needs >= 2 force evaluations (initial + corrector).
	wantMin := 2 * FlopsPerPair * 50.0 * 49.0
	if s.flops < wantMin {
		t.Fatalf("flops = %v, want >= %v", s.flops, wantMin)
	}
	prev := s.ResetFlops()
	if prev == 0 || s.flops != 0 {
		t.Fatal("ResetFlops broken")
	}
}

func TestKickChangesVelocities(t *testing.T) {
	s := NewSystem(NewCPUKernel(cpuDev()), 0)
	s.SetParticles(twoBody())
	kick := []data.Vec3{{1, 0, 0}, {1, 0, 0}}
	if err := s.Kick(context.Background(), kick); err != nil {
		t.Fatal(err)
	}
	if s.Velocities()[0] != (data.Vec3{1, -0.5, 0}) {
		t.Fatalf("vel after kick: %v", s.Velocities()[0])
	}
	if err := s.Kick(context.Background(), []data.Vec3{{1, 0, 0}}); err == nil {
		t.Fatal("short kick accepted")
	}
}

func TestSetMassAffectsDynamics(t *testing.T) {
	// Dropping the companion's mass to ~0 must unbind a circular binary.
	s := NewSystem(NewCPUKernel(cpuDev()), 0)
	s.SetParticles(twoBody())
	s.SetMass(0, 1e-9)
	s.SetMass(1, 1e-9)
	if err := s.EvolveTo(context.Background(), 2); err != nil {
		t.Fatal(err)
	}
	// With (almost) no gravity the bodies coast: separation grows ~ v_rel·t.
	sep := s.Positions()[1].Sub(s.Positions()[0]).Norm()
	if sep < 1.5 {
		t.Fatalf("separation = %v, want ballistic growth", sep)
	}
}

func TestEvolveEmptySystem(t *testing.T) {
	s := NewSystem(NewCPUKernel(cpuDev()), 0)
	if err := s.EvolveTo(context.Background(), 1); err != ErrNoParticles {
		t.Fatalf("err = %v", err)
	}
	if _, err := s.Step(); err != ErrNoParticles {
		t.Fatalf("err = %v", err)
	}
}

func TestGetParticlesSizeMismatch(t *testing.T) {
	s := NewSystem(NewCPUKernel(cpuDev()), 0)
	s.SetParticles(twoBody())
	if err := s.GetParticles(data.NewParticles(3)); err == nil {
		t.Fatal("size mismatch accepted")
	}
}

func TestSofteningLimitsForce(t *testing.T) {
	// Two particles at tiny separation: with softening the acceleration is
	// bounded by ~m/eps².
	p := data.NewParticles(2)
	p.Mass[0], p.Mass[1] = 1, 1
	p.Pos[1] = data.Vec3{1e-8, 0, 0}
	var f Forces
	NewCPUKernel(cpuDev()).ForcesSlab(p.Mass, p.Pos, p.Vel, 0.01*0.01, 0, p.Len(), &f)
	if a := f.Acc[0].Norm(); a > 1/(0.01*0.01) {
		t.Fatalf("softened acc = %v exceeds m/eps²", a)
	}
}

func TestGPUDeviceModelFaster(t *testing.T) {
	// The virtual-time model must make the GPU kernel dramatically faster
	// for the same flops — the paper's scenario 1 vs 2.
	flops := 60.0 * 1000 * 999 * 100 // 100 evaluations of a 1k system
	tc := cpuDev().Time(flops, 4)
	tg := gpuDev().Time(flops, 1)
	if tg >= tc/10 {
		t.Fatalf("GPU %v not >=10x faster than CPU %v", tg, tc)
	}
}
