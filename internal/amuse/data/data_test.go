package data

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func randomSet(rng *rand.Rand, n int) *Particles {
	p := NewParticles(n)
	for i := 0; i < n; i++ {
		p.Mass[i] = rng.Float64() + 0.1
		p.Pos[i] = Vec3{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
		p.Vel[i] = Vec3{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
	}
	return p
}

func TestVecOps(t *testing.T) {
	a, b := Vec3{1, 2, 3}, Vec3{4, 5, 6}
	if got := a.Add(b); got != (Vec3{5, 7, 9}) {
		t.Fatalf("add: %v", got)
	}
	if got := b.Sub(a); got != (Vec3{3, 3, 3}) {
		t.Fatalf("sub: %v", got)
	}
	if got := a.Dot(b); got != 32 {
		t.Fatalf("dot: %v", got)
	}
	if got := a.Scale(2).Norm2(); got != 4*14 {
		t.Fatalf("scale/norm2: %v", got)
	}
	if got := (Vec3{3, 4, 0}).Norm(); got != 5 {
		t.Fatalf("norm: %v", got)
	}
}

func TestCenterOfMass(t *testing.T) {
	p := NewParticles(2)
	p.Mass[0], p.Mass[1] = 1, 3
	p.Pos[0], p.Pos[1] = Vec3{0, 0, 0}, Vec3{4, 0, 0}
	if com := p.CenterOfMass(); com != (Vec3{3, 0, 0}) {
		t.Fatalf("com = %v", com)
	}
	p.Vel[0], p.Vel[1] = Vec3{4, 0, 0}, Vec3{0, 0, 0}
	if cov := p.CenterOfMassVelocity(); cov != (Vec3{1, 0, 0}) {
		t.Fatalf("cov = %v", cov)
	}
	p.MoveToCenter()
	if com := p.CenterOfMass(); com.Norm() > 1e-14 {
		t.Fatalf("after MoveToCenter com = %v", com)
	}
}

func TestEnergies(t *testing.T) {
	// Two unit masses at distance 2, at rest: U = -G/2, T = 0.
	p := NewParticles(2)
	p.Mass[0], p.Mass[1] = 1, 1
	p.Pos[1] = Vec3{2, 0, 0}
	if u := p.PotentialEnergy(1, 0); math.Abs(u+0.5) > 1e-14 {
		t.Fatalf("U = %v, want -0.5", u)
	}
	p.Vel[0] = Vec3{0, 1, 0}
	if ke := p.KineticEnergy(); ke != 0.5 {
		t.Fatalf("T = %v, want 0.5", ke)
	}
}

func TestHalfMassRadius(t *testing.T) {
	// Shell of 4 at r=1, shell of 4 at r=3 → half-mass radius is 1.
	p := NewParticles(8)
	dirs := []Vec3{{1, 0, 0}, {-1, 0, 0}, {0, 1, 0}, {0, -1, 0}}
	for i := 0; i < 4; i++ {
		p.Mass[i] = 1
		p.Pos[i] = dirs[i]
	}
	for i := 4; i < 8; i++ {
		p.Mass[i] = 1
		p.Pos[i] = dirs[i-4].Scale(3)
	}
	if r := p.HalfMassRadius(); math.Abs(r-1) > 1e-12 {
		t.Fatalf("half-mass radius = %v", r)
	}
}

func TestBoundMassFraction(t *testing.T) {
	// A tight binary is bound; a distant fast escaper is not.
	p := NewParticles(3)
	p.Mass[0], p.Mass[1], p.Mass[2] = 1, 1, 1e-4
	p.Pos[0], p.Pos[1] = Vec3{-0.05, 0, 0}, Vec3{0.05, 0, 0}
	p.Pos[2] = Vec3{100, 0, 0}
	p.Vel[2] = Vec3{100, 0, 0}
	f := p.BoundMassFraction(0)
	want := 2.0 / (2 + 1e-4)
	if math.Abs(f-want) > 1e-6 {
		t.Fatalf("bound fraction = %v, want %v", f, want)
	}
}

func TestCloneIsDeep(t *testing.T) {
	p := NewParticles(2)
	p.Mass[0] = 5
	q := p.Clone()
	q.Mass[0] = 7
	q.Pos[0] = Vec3{1, 1, 1}
	if p.Mass[0] != 5 || p.Pos[0] != (Vec3{}) {
		t.Fatal("clone shares storage")
	}
	if q.Key[1] != p.Key[1] {
		t.Fatal("clone lost a key")
	}
}

// Property: for any random set, MoveToCenter zeroes the COM and COM-velocity
// and preserves kinetic energy in the COM frame relationship T' <= T.
func TestMoveToCenterProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := randomSet(rng, 2+rng.Intn(30))
		t0 := p.KineticEnergy()
		p.MoveToCenter()
		return p.CenterOfMass().Norm() < 1e-10 &&
			p.CenterOfMassVelocity().Norm() < 1e-10 &&
			p.KineticEnergy() <= t0+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: potential energy is negative, monotone in softening (more
// softening, shallower potential).
func TestPotentialSofteningProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := randomSet(rng, 2+rng.Intn(20))
		u0 := p.PotentialEnergy(1, 0)
		u1 := p.PotentialEnergy(1, 0.5)
		return u0 < 0 && u1 > u0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
