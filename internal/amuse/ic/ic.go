// Package ic generates initial conditions for the paper's evaluation
// workload: Plummer-sphere star clusters with an IMF, and embedded gas
// spheres — the "young stars embedded in a sphere of gas" initial state of
// Fig. 6a. All generators are deterministic given a seed.
package ic

import (
	"fmt"
	"math"
	"math/rand"

	"jungle/internal/amuse/data"
)

// Plummer samples n equal-mass particles from a Plummer sphere in standard
// N-body units (total mass 1, virial radius ~1, G=1), using Aarseth's
// rejection method for the velocities. The set is shifted to its center of
// mass.
func Plummer(n int, seed int64) *data.Particles {
	rng := rand.New(rand.NewSource(seed))
	p := data.NewParticles(n)
	for i := 0; i < n; i++ {
		p.Mass[i] = 1.0 / float64(n)
		p.Pos[i] = plummerPosition(rng)
		p.Vel[i] = plummerVelocity(rng, p.Pos[i])
	}
	p.MoveToCenter()
	return p
}

// plummerPosition samples a radius from the Plummer cumulative mass profile
// M(r) = r³/(1+r²)^(3/2) and a uniform direction. The scale radius here is
// the structural a = 3π/16 of the standard-units model.
func plummerPosition(rng *rand.Rand) data.Vec3 {
	const a = 3 * math.Pi / 16
	// Invert the cumulative mass function: r = a / sqrt(X^(-2/3) - 1).
	x := rng.Float64()
	for x == 0 {
		x = rng.Float64()
	}
	r := a / math.Sqrt(math.Pow(x, -2.0/3.0)-1)
	return randomDirection(rng).Scale(r)
}

// plummerVelocity rejection-samples the speed from the isotropic
// distribution f(q) ∝ q²(1−q²)^(7/2), q = v/v_esc.
func plummerVelocity(rng *rand.Rand, pos data.Vec3) data.Vec3 {
	const a = 3 * math.Pi / 16
	r := pos.Norm()
	// Escape velocity in these units: v_esc² = 2/(r²+a²)^(1/2).
	vesc := math.Sqrt(2) * math.Pow(r*r+a*a, -0.25)
	var q float64
	for {
		x := rng.Float64()
		y := rng.Float64() * 0.1 // max of q²(1-q²)^(7/2) is < 0.1
		if y < x*x*math.Pow(1-x*x, 3.5) {
			q = x
			break
		}
	}
	return randomDirection(rng).Scale(q * vesc)
}

func randomDirection(rng *rand.Rand) data.Vec3 {
	z := 2*rng.Float64() - 1
	phi := 2 * math.Pi * rng.Float64()
	s := math.Sqrt(1 - z*z)
	return data.Vec3{s * math.Cos(phi), s * math.Sin(phi), z}
}

// SalpeterIMF samples n stellar masses (in solar masses) from the Salpeter
// power law dN/dm ∝ m^(-2.35) between lo and hi.
func SalpeterIMF(n int, lo, hi float64, seed int64) []float64 {
	const alpha = 2.35
	rng := rand.New(rand.NewSource(seed))
	out := make([]float64, n)
	// Inverse-CDF sampling of a truncated power law.
	a1 := 1 - alpha
	loA, hiA := math.Pow(lo, a1), math.Pow(hi, a1)
	for i := range out {
		x := rng.Float64()
		out[i] = math.Pow(loA+x*(hiA-loA), 1/a1)
	}
	return out
}

// ClusterSpec configures an embedded star cluster.
type ClusterSpec struct {
	Stars   int     // number of stars
	Gas     int     // number of SPH gas particles
	GasFrac float64 // gas mass fraction of the total (0..1)
	IMFLow  float64 // IMF bounds in solar masses (used for stellar typing)
	IMFHigh float64
	Seed    int64
}

// EmbeddedCluster builds the paper's evaluation workload in N-body units:
// a Plummer star cluster whose masses follow a Salpeter IMF (rescaled so the
// stars' total is 1−GasFrac) embedded in a Plummer gas sphere of total mass
// GasFrac with thermal energy set to half virial. It returns the star set
// and the gas set; together their mass is 1.
func EmbeddedCluster(spec ClusterSpec) (stars, gas *data.Particles, err error) {
	if spec.Stars < 1 || spec.Gas < 0 {
		return nil, nil, fmt.Errorf("ic: invalid cluster spec: %d stars, %d gas", spec.Stars, spec.Gas)
	}
	if spec.GasFrac < 0 || spec.GasFrac >= 1 {
		return nil, nil, fmt.Errorf("ic: gas fraction %v outside [0,1)", spec.GasFrac)
	}
	if spec.IMFLow <= 0 {
		spec.IMFLow = 0.3
	}
	if spec.IMFHigh <= spec.IMFLow {
		spec.IMFHigh = 25
	}

	stars = Plummer(spec.Stars, spec.Seed)
	imf := SalpeterIMF(spec.Stars, spec.IMFLow, spec.IMFHigh, spec.Seed+1)
	var imfTotal float64
	for _, m := range imf {
		imfTotal += m
	}
	starMass := 1 - spec.GasFrac
	for i := range stars.Mass {
		stars.Mass[i] = imf[i] / imfTotal * starMass
		// Age starts at zero; the solar-mass value is what stellar
		// evolution keys on, stored by the coupler via unit conversion.
	}
	stars.MoveToCenter()

	gas = data.NewParticles(0)
	if spec.Gas > 0 {
		gas = Plummer(spec.Gas, spec.Seed+2)
		for i := range gas.Mass {
			gas.Mass[i] = spec.GasFrac / float64(spec.Gas)
			// Thermal support at half the local virial level, spread
			// uniformly: u = 0.05 (N-body specific energy), a warm but
			// bound initial cloud, matching the "sphere of gas" start.
			gas.InternalEnergy[i] = 0.05
			gas.SmoothingLen[i] = 0.1
		}
	}
	return stars, gas, nil
}

// UniformSphere places n equal-mass particles uniformly inside radius r,
// at rest: the physics oracle tests' second distribution (tests only).
func UniformSphere(n int, totalMass, r float64, seed int64) *data.Particles {
	rng := rand.New(rand.NewSource(seed))
	p := data.NewParticles(n)
	for i := 0; i < n; i++ {
		p.Mass[i] = totalMass / float64(n)
		rr := r * math.Cbrt(rng.Float64())
		p.Pos[i] = randomDirection(rng).Scale(rr)
	}
	p.MoveToCenter()
	return p
}
