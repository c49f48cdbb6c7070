package nbody

import (
	"context"
	"errors"
	"fmt"
	"math"
	"time"

	"jungle/internal/amuse/data"
)

// ErrNoParticles is returned when evolving an empty system.
var ErrNoParticles = errors.New("nbody: no particles")

// System is a PhiGRAPE-style direct N-body integrator: shared adaptive
// timestep, 4th-order Hermite predictor–corrector. All state is in N-body
// units (G=1).
type System struct {
	// Eps is the Plummer softening length.
	Eps float64
	// Eta is the dimensionless timestep accuracy parameter (default 0.02).
	Eta float64
	// DtMax caps the shared timestep (default 1/64 time unit).
	DtMax float64

	time float64
	mass []float64
	pos  []data.Vec3
	vel  []data.Vec3
	keys []uint64

	kernel Kernel
	f0, f1 Forces
	fresh  bool // f0 matches current state

	flops float64
	steps int

	// Sharded-evolution state (shard.go): explicit slab boundaries set by
	// the elastic-gang rebalancer (nil = uniform decomposition) and the
	// per-rank slab compute-time accumulator behind the rank_load query.
	cuts        []int
	loadCompute time.Duration
}

// NewSystem returns an empty system using the given kernel.
func NewSystem(kernel Kernel, eps float64) *System {
	return &System{Eps: eps, Eta: 0.02, DtMax: 1.0 / 64, kernel: kernel}
}

// SetParticles loads mass, position and velocity from the set.
func (s *System) SetParticles(p *data.Particles) {
	n := p.Len()
	s.mass = append(s.mass[:0], p.Mass...)
	s.pos = append(s.pos[:0], p.Pos...)
	s.vel = append(s.vel[:0], p.Vel...)
	s.keys = append(s.keys[:0], p.Key...)
	s.fresh = false
	_ = n
}

// GetParticles writes the current state back into the set (by index; the
// set must be the same membership that was loaded).
func (s *System) GetParticles(p *data.Particles) error {
	if p.Len() != len(s.mass) {
		return fmt.Errorf("nbody: set has %d particles, system has %d", p.Len(), len(s.mass))
	}
	copy(p.Mass, s.mass)
	copy(p.Pos, s.pos)
	copy(p.Vel, s.vel)
	return nil
}

// RestoreClock rewinds (or forwards) the integrator's model clock and step
// count to a checkpoint's values. The caller must have restored the
// matching phase-space state first; forces are recomputed from it on the
// next step, so a restored system continues bit-identically to the run
// that took the snapshot.
func (s *System) RestoreClock(t float64, steps int) {
	s.time = t
	s.steps = steps
	s.fresh = false
}

// N returns the particle count.
func (s *System) N() int { return len(s.mass) }

// Time returns the current model time.
func (s *System) Time() float64 { return s.time }

// Steps returns the number of integrator steps taken.
func (s *System) Steps() int { return s.steps }

// Flops returns the accumulated accounted flop count.
func (s *System) Flops() float64 { return s.flops }

// ResetFlops zeroes the flop counter and returns the prior value.
func (s *System) ResetFlops() float64 {
	f := s.flops
	s.flops = 0
	return f
}

// Positions exposes the internal position slice (read-only by convention;
// used by the coupling model to evaluate cross-system forces).
func (s *System) Positions() []data.Vec3 { return s.pos }

// Velocities exposes the internal velocity slice.
func (s *System) Velocities() []data.Vec3 { return s.vel }

// Masses exposes the internal mass slice.
func (s *System) Masses() []float64 { return s.mass }

// Keys exposes the particles' stable identifiers (read-only by
// convention).
func (s *System) Keys() []uint64 { return s.keys }

// SetMass updates the mass of particle i (stellar mass loss pushed in by
// the coupler between dynamical steps).
func (s *System) SetMass(i int, m float64) {
	s.mass[i] = m
	s.fresh = false
}

// Kick applies velocity increments (BRIDGE coupling kicks from an external
// field). len(dv) must equal N. The kick is a single cheap pass; the
// context is only checked on entry.
func (s *System) Kick(ctx context.Context, dv []data.Vec3) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if len(dv) != len(s.vel) {
		return fmt.Errorf("nbody: kick length %d != N %d", len(dv), len(s.vel))
	}
	for i := range s.vel {
		s.vel[i] = s.vel[i].Add(dv[i])
	}
	s.fresh = false
	return nil
}

// Energy returns (kinetic, potential) at the current state. The potential
// is computed with the force kernel (counted in flops).
func (s *System) Energy() (kin, pot float64) {
	s.refreshForces()
	for i := range s.mass {
		kin += 0.5 * s.mass[i] * s.vel[i].Norm2()
		pot += 0.5 * s.mass[i] * s.f0.Pot[i]
	}
	return kin, pot
}

func (s *System) refreshForces() {
	if s.fresh {
		return
	}
	s.flops += s.kernel.Forces(s.mass, s.pos, s.vel, s.Eps*s.Eps, &s.f0)
	s.fresh = true
}

// sharedTimestep returns the Aarseth-style shared step
// eta · min_i sqrt(|a_i| / |j_i|), clamped to (0, DtMax].
func (s *System) sharedTimestep() float64 {
	dt := s.DtMax
	for i := range s.mass {
		a := s.f0.Acc[i].Norm()
		j := s.f0.Jerk[i].Norm()
		if j > 0 && a > 0 {
			if d := s.Eta * math.Sqrt(a/j); d < dt {
				dt = d
			}
		}
	}
	if dt <= 0 || math.IsNaN(dt) {
		dt = 1e-8
	}
	return dt
}

// Step advances the system by one shared Hermite step, returning the dt
// taken.
func (s *System) Step() (float64, error) {
	if len(s.mass) == 0 {
		return 0, ErrNoParticles
	}
	s.refreshForces()
	dt := s.sharedTimestep()
	s.advance(dt)
	return dt, nil
}

// EvolveTo advances the system to model time t (it does not step past t:
// the final step is shortened to land exactly). The context is polled
// between shared steps, so cancellation aborts a long integration at the
// next step boundary with the state consistent.
func (s *System) EvolveTo(ctx context.Context, t float64) error {
	if len(s.mass) == 0 {
		return ErrNoParticles
	}
	for s.time < t-1e-15 {
		if err := ctx.Err(); err != nil {
			return err
		}
		s.refreshForces()
		dt := s.sharedTimestep()
		if s.time+dt > t {
			dt = t - s.time
		}
		s.advance(dt)
	}
	return nil
}

// advance performs one predictor-evaluate-correct Hermite update with step
// dt. s.f0 must be fresh.
func (s *System) advance(dt float64) {
	n := len(s.mass)
	dt2 := dt * dt / 2
	dt3 := dt * dt * dt / 6

	oldPos := append([]data.Vec3(nil), s.pos...)
	oldVel := append([]data.Vec3(nil), s.vel...)

	// Predict.
	for i := 0; i < n; i++ {
		a, j := s.f0.Acc[i], s.f0.Jerk[i]
		s.pos[i] = s.pos[i].
			Add(oldVel[i].Scale(dt)).
			Add(a.Scale(dt2)).
			Add(j.Scale(dt3))
		s.vel[i] = s.vel[i].
			Add(a.Scale(dt)).
			Add(j.Scale(dt2))
	}

	// Evaluate at prediction.
	s.flops += s.kernel.Forces(s.mass, s.pos, s.vel, s.Eps*s.Eps, &s.f1)

	// Correct (Hermite 4th order, Makino & Aarseth 1992 form).
	for i := 0; i < n; i++ {
		a0, j0 := s.f0.Acc[i], s.f0.Jerk[i]
		a1, j1 := s.f1.Acc[i], s.f1.Jerk[i]
		// v_corr = v_old + dt/2 (a0+a1) + dt²/12 (j0−j1)
		s.vel[i] = oldVel[i].
			Add(a0.Add(a1).Scale(dt / 2)).
			Add(j0.Sub(j1).Scale(dt * dt / 12))
		// x_corr = x_old + dt/2 (v_old+v_corr) + dt²/12 (a0−a1)
		s.pos[i] = oldPos[i].
			Add(oldVel[i].Add(s.vel[i]).Scale(dt / 2)).
			Add(a0.Sub(a1).Scale(dt * dt / 12))
	}

	s.time += dt
	s.steps++
	s.fresh = false
}
