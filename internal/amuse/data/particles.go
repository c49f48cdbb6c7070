// Package data implements AMUSE-style particle sets: structure-of-arrays
// collections with stable keys and named attribute columns, plus the
// attribute channel that copies selected columns between two
// worker-resident sets — the mechanism AMUSE scripts use to move state
// between models (Fig. 7's "p-kicks" and state exchanges).
package data

import (
	"math"
	"sort"
)

// Particles is a structure-of-arrays particle set. All slices have equal
// length. Keys are stable unique identifiers that survive copies between
// sets; every other attribute is per-particle state.
type Particles struct {
	Key  []uint64
	Mass []float64
	Pos  []Vec3
	Vel  []Vec3

	// SPH / gas attributes.
	InternalEnergy []float64 // specific internal energy u
	Density        []float64
	SmoothingLen   []float64

	// Stellar evolution attributes.
	Radius      []float64
	Luminosity  []float64
	Temperature []float64
	StellarType []int
	Age         []float64

	nextKey uint64
}

// NewParticles returns a set with n particles and fresh sequential keys.
func NewParticles(n int) *Particles {
	p := &Particles{}
	p.grow(n)
	for i := 0; i < n; i++ {
		p.Key[i] = uint64(i + 1)
	}
	p.nextKey = uint64(n + 1)
	return p
}

func (p *Particles) grow(n int) {
	p.Key = append(p.Key, make([]uint64, n)...)
	p.Mass = append(p.Mass, make([]float64, n)...)
	p.Pos = append(p.Pos, make([]Vec3, n)...)
	p.Vel = append(p.Vel, make([]Vec3, n)...)
	p.InternalEnergy = append(p.InternalEnergy, make([]float64, n)...)
	p.Density = append(p.Density, make([]float64, n)...)
	p.SmoothingLen = append(p.SmoothingLen, make([]float64, n)...)
	p.Radius = append(p.Radius, make([]float64, n)...)
	p.Luminosity = append(p.Luminosity, make([]float64, n)...)
	p.Temperature = append(p.Temperature, make([]float64, n)...)
	p.StellarType = append(p.StellarType, make([]int, n)...)
	p.Age = append(p.Age, make([]float64, n)...)
}

// Len returns the number of particles.
func (p *Particles) Len() int { return len(p.Key) }

// Clone returns a deep copy sharing no storage.
func (p *Particles) Clone() *Particles {
	q := &Particles{nextKey: p.nextKey}
	q.Key = append([]uint64(nil), p.Key...)
	q.Mass = append([]float64(nil), p.Mass...)
	q.Pos = append([]Vec3(nil), p.Pos...)
	q.Vel = append([]Vec3(nil), p.Vel...)
	q.InternalEnergy = append([]float64(nil), p.InternalEnergy...)
	q.Density = append([]float64(nil), p.Density...)
	q.SmoothingLen = append([]float64(nil), p.SmoothingLen...)
	q.Radius = append([]float64(nil), p.Radius...)
	q.Luminosity = append([]float64(nil), p.Luminosity...)
	q.Temperature = append([]float64(nil), p.Temperature...)
	q.StellarType = append([]int(nil), p.StellarType...)
	q.Age = append([]float64(nil), p.Age...)
	return q
}

// TotalMass returns the summed mass.
func (p *Particles) TotalMass() float64 {
	var m float64
	for _, x := range p.Mass {
		m += x
	}
	return m
}

// CenterOfMass returns the mass-weighted mean position.
func (p *Particles) CenterOfMass() Vec3 {
	var com Vec3
	var m float64
	for i := range p.Mass {
		com = com.Add(p.Pos[i].Scale(p.Mass[i]))
		m += p.Mass[i]
	}
	if m == 0 {
		return Vec3{}
	}
	return com.Scale(1 / m)
}

// CenterOfMassVelocity returns the mass-weighted mean velocity.
func (p *Particles) CenterOfMassVelocity() Vec3 {
	var v Vec3
	var m float64
	for i := range p.Mass {
		v = v.Add(p.Vel[i].Scale(p.Mass[i]))
		m += p.Mass[i]
	}
	if m == 0 {
		return Vec3{}
	}
	return v.Scale(1 / m)
}

// KineticEnergy returns Σ ½ m v² (a diagnostic: tests only, like PotentialEnergy).
func (p *Particles) KineticEnergy() float64 {
	var e float64
	for i := range p.Mass {
		e += 0.5 * p.Mass[i] * p.Vel[i].Norm2()
	}
	return e
}

// PotentialEnergy returns the direct-sum pairwise potential −G Σ mᵢmⱼ/rᵢⱼ
// with Plummer softening eps. O(N²); a diagnostic: tests only (ic's virial check).
func (p *Particles) PotentialEnergy(g, eps float64) float64 {
	var e float64
	eps2 := eps * eps
	for i := 0; i < p.Len(); i++ {
		for j := i + 1; j < p.Len(); j++ {
			r := math.Sqrt(p.Pos[i].Sub(p.Pos[j]).Norm2() + eps2)
			e -= g * p.Mass[i] * p.Mass[j] / r
		}
	}
	return e
}

// MoveToCenter shifts positions and velocities into the center-of-mass
// frame, as AMUSE's move_to_center does before coupling models.
func (p *Particles) MoveToCenter() {
	com := p.CenterOfMass()
	cov := p.CenterOfMassVelocity()
	for i := range p.Pos {
		p.Pos[i] = p.Pos[i].Sub(com)
		p.Vel[i] = p.Vel[i].Sub(cov)
	}
}

// HalfMassRadius returns the radius (from the center of mass) containing
// half the total mass.
func (p *Particles) HalfMassRadius() float64 {
	if p.Len() == 0 {
		return 0
	}
	com := p.CenterOfMass()
	type mr struct {
		r, m float64
	}
	rs := make([]mr, p.Len())
	for i := range p.Pos {
		rs[i] = mr{r: p.Pos[i].Sub(com).Norm(), m: p.Mass[i]}
	}
	sort.Slice(rs, func(i, j int) bool { return rs[i].r < rs[j].r })
	half := p.TotalMass() / 2
	var acc float64
	for _, x := range rs {
		acc += x.m
		if acc >= half {
			return x.r
		}
	}
	return rs[len(rs)-1].r
}

// BoundMassFraction returns the fraction of mass with negative specific
// energy relative to the set's own potential (G=1, softening eps): the
// diagnostic used to track gas expulsion through the Fig. 6 stages.
func (p *Particles) BoundMassFraction(eps float64) float64 {
	n := p.Len()
	if n == 0 {
		return 0
	}
	eps2 := eps * eps
	total, bound := 0.0, 0.0
	cov := p.CenterOfMassVelocity()
	for i := 0; i < n; i++ {
		var phi float64
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			r := math.Sqrt(p.Pos[i].Sub(p.Pos[j]).Norm2() + eps2)
			phi -= p.Mass[j] / r
		}
		ke := 0.5 * p.Vel[i].Sub(cov).Norm2()
		total += p.Mass[i]
		if ke+phi+p.InternalEnergy[i] < 0 {
			bound += p.Mass[i]
		}
	}
	if total == 0 {
		return 0
	}
	return bound / total
}
