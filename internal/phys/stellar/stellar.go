// Package stellar reimplements the paper's stellar-evolution model: an
// SSE-equivalent parameterized code (Hurley, Pols & Tout 2000). As the paper
// notes, SSE "does a simple lookup of a star's age and initial mass to
// determine its current state. Since this lookup is nearly trivial, SSE is
// simply a sequential application" — the model here is a compact analytic
// parameterization with the same structure: phases keyed on fractional
// main-sequence age, an initial–final mass relation, and supernovae for
// massive stars (the paper's simulation has "several of the bigger stars
// exploding in a supernova").
//
// Units: masses in MSun, times in Myr, radii in RSun, luminosities in LSun,
// temperatures in K.
package stellar

import (
	"errors"
	"fmt"
	"math"
)

// Type is the stellar evolutionary type (subset of SSE's 16 types).
type Type int

// Stellar types in evolutionary order.
const (
	MainSequence Type = iota + 1
	Giant
	WhiteDwarf
	NeutronStar
	BlackHole
)

func (t Type) String() string {
	switch t {
	case MainSequence:
		return "main-sequence"
	case Giant:
		return "giant"
	case WhiteDwarf:
		return "white-dwarf"
	case NeutronStar:
		return "neutron-star"
	case BlackHole:
		return "black-hole"
	default:
		return fmt.Sprintf("Type(%d)", int(t))
	}
}

// FlopsPerStar is the accounted cost of one star state lookup — small, as
// the paper stresses.
const FlopsPerStar = 120

// Star is the evolving state of one star.
type Star struct {
	InitialMass float64 // MSun, fixed at birth
	Mass        float64 // MSun, current
	Radius      float64 // RSun
	Luminosity  float64 // LSun
	Temperature float64 // K
	Age         float64 // Myr
	Type        Type
	// Supernova is set on the evolution call during which the star
	// collapsed (so couplers can count explosion events).
	Supernova bool
}

// ErrBadMass rejects non-physical initial masses.
var ErrBadMass = errors.New("stellar: initial mass out of range (0.08..150 MSun)")

// SSE is the parameterized evolution model. The zero value is not usable;
// call New.
type SSE struct {
	// GiantFraction is the giant-branch duration as a fraction of the
	// main-sequence lifetime (default 0.15).
	GiantFraction float64
	// SNThreshold is the minimum initial mass (MSun) that explodes as a
	// supernova leaving a neutron star (default 8).
	SNThreshold float64
	// BHThreshold is the minimum initial mass leaving a black hole
	// (default 20).
	BHThreshold float64
}

// New returns the model with standard parameters.
func New() *SSE {
	return &SSE{GiantFraction: 0.15, SNThreshold: 8, BHThreshold: 20}
}

// MSLifetime returns the main-sequence lifetime in Myr for an initial mass
// in MSun: ~10 Gyr at 1 MSun, steeply shorter for massive stars (the
// canonical t ∝ M/L ≈ M^-2.5 scaling, floored for the most massive stars).
func (s *SSE) MSLifetime(m float64) float64 {
	t := 1.0e4 * math.Pow(m, -2.5)
	if t < 3 {
		t = 3 // even the most massive stars live ~3 Myr
	}
	return t
}

// InitFinalMass is the initial–final mass relation: the remnant mass for a
// star of the given initial mass.
func (s *SSE) InitFinalMass(m float64) float64 {
	switch {
	case m >= s.BHThreshold:
		return 0.5 * m // black hole keeps a large fraction
	case m >= s.SNThreshold:
		return 1.4 // Chandrasekhar-mass neutron star
	default:
		// White dwarf (Kalirai et al. 2008), capped at the initial mass:
		// the linear relation extrapolates above m below ~0.45 MSun, where
		// the star simply keeps (almost) all of its mass.
		wd := 0.109*m + 0.394
		if wd > m {
			wd = m
		}
		return wd
	}
}

// NewStar returns a zero-age main-sequence star of mass m MSun.
func (s *SSE) NewStar(m float64) (Star, error) {
	if m < 0.08 || m > 150 {
		return Star{}, fmt.Errorf("%w: %v", ErrBadMass, m)
	}
	st := Star{InitialMass: m, Mass: m, Age: 0, Type: MainSequence}
	s.setObservables(&st, 1, 1)
	return st, nil
}

// Evolve advances the star to the given age in Myr (ages only move
// forward; earlier ages are ignored). Returns the mass lost since the
// previous state, which couplers feed back into the dynamics.
func (s *SSE) Evolve(st *Star, age float64) float64 {
	if age <= st.Age {
		return 0
	}
	prevMass := st.Mass
	st.Age = age
	st.Supernova = false

	m0 := st.InitialMass
	tMS := s.MSLifetime(m0)
	tGiant := tMS * (1 + s.GiantFraction)

	switch {
	case age < tMS:
		st.Type = MainSequence
		// Small main-sequence wind mass loss for massive stars.
		if m0 > 15 {
			frac := 0.05 * age / tMS
			st.Mass = m0 * (1 - frac)
		}
		// Luminosity brightens modestly along the MS.
		bright := 1 + 0.6*age/tMS
		s.setObservables(st, bright, 1)
	case age < tGiant:
		st.Type = Giant
		// Lose mass linearly toward the remnant mass across the giant
		// branch (strong winds / envelope ejection), starting from the
		// end-of-main-sequence mass so mass never increases.
		mEndMS := m0
		if m0 > 15 {
			mEndMS = 0.95 * m0
		}
		f := (age - tMS) / (tGiant - tMS)
		mRem := s.InitFinalMass(m0)
		preCollapse := mRem + (1-mRem/m0)*0.3*m0 // keeps most mass until collapse
		if preCollapse > mEndMS {
			preCollapse = mEndMS
		}
		st.Mass = mEndMS + f*(preCollapse-mEndMS)
		s.setObservables(st, 60, 25) // luminous, inflated
	default:
		// Remnant. Flag the supernova on the transition call.
		wasAlive := st.Type == MainSequence || st.Type == Giant
		mRem := s.InitFinalMass(m0)
		st.Mass = mRem
		switch {
		case m0 >= s.BHThreshold:
			st.Type = BlackHole
			st.Radius = 1e-5
			st.Luminosity = 1e-10
			st.Temperature = 0
			if wasAlive {
				st.Supernova = true
			}
		case m0 >= s.SNThreshold:
			st.Type = NeutronStar
			st.Radius = 1.4e-5 // ~10 km
			st.Luminosity = 1e-6
			st.Temperature = 1e6
			if wasAlive {
				st.Supernova = true
			}
		default:
			st.Type = WhiteDwarf
			st.Radius = 0.013
			st.Luminosity = 1e-3
			st.Temperature = 2e4
		}
	}
	return prevMass - st.Mass
}

// setObservables fills radius, luminosity and temperature from mass with
// main-sequence power laws times the given enhancement factors.
func (s *SSE) setObservables(st *Star, lFactor, rFactor float64) {
	m := st.Mass
	st.Luminosity = lFactor * math.Pow(m, 3.5)
	st.Radius = rFactor * math.Pow(m, 0.75)
	// T/Tsun = (L / R²)^(1/4)
	const tSun = 5772
	st.Temperature = tSun * math.Pow(st.Luminosity/(st.Radius*st.Radius), 0.25)
}

// Population evolves a set of stars together (the SSE worker's state).
type Population struct {
	Stars []Star
	sse   *SSE
	time  float64 // Myr

	supernovae int
	flops      float64
}

// NewPopulation creates a population from initial masses in MSun.
func NewPopulation(sse *SSE, masses []float64) (*Population, error) {
	p := &Population{sse: sse}
	for i, m := range masses {
		st, err := sse.NewStar(m)
		if err != nil {
			return nil, fmt.Errorf("star %d: %w", i, err)
		}
		p.Stars = append(p.Stars, st)
	}
	return p, nil
}

// Time returns the population age in Myr.
func (p *Population) Time() float64 { return p.time }

// Supernovae returns the cumulative explosion count.
func (p *Population) Supernovae() int { return p.supernovae }

// Restore replaces the population's evolving state with a checkpoint's:
// the per-star states (which are plain exported data), the population age
// and the cumulative supernova count. The SSE parameterization itself is
// configuration, not state, and is kept.
func (p *Population) Restore(stars []Star, timeMyr float64, supernovae int) {
	p.Stars = append(p.Stars[:0], stars...)
	p.time = timeMyr
	p.supernovae = supernovae
}

// Flops returns the accounted flop count.
func (p *Population) Flops() float64 { return p.flops }

// ResetFlops zeroes the counter and returns the prior value.
func (p *Population) ResetFlops() float64 {
	f := p.flops
	p.flops = 0
	return f
}

// EvolveTo advances every star to age tMyr and returns the per-star mass
// loss (MSun) since the previous call.
func (p *Population) EvolveTo(tMyr float64) []float64 {
	loss := make([]float64, len(p.Stars))
	for i := range p.Stars {
		loss[i] = p.sse.Evolve(&p.Stars[i], tMyr)
		if p.Stars[i].Supernova {
			p.supernovae++
		}
	}
	p.flops += FlopsPerStar * float64(len(p.Stars))
	if tMyr > p.time {
		p.time = tMyr
	}
	return loss
}

// TotalMass returns the current summed mass in MSun.
func (p *Population) TotalMass() float64 {
	var m float64
	for i := range p.Stars {
		m += p.Stars[i].Mass
	}
	return m
}
