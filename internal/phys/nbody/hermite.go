package nbody

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"time"

	"jungle/internal/amuse/data"
	"jungle/internal/mpisim"
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

	// oldPos and oldVel are a step's copies of pos and vel from before its
	// predictor, kept from one step to the next. They are sized by the
	// first step, not by load: a system that never steps (a worker that
	// only holds and moves state) keeps no scratch.
	oldPos, oldVel []data.Vec3

	flops float64
	steps int

	// Sharded-evolution state (shard.go): the slab boundaries the gang's
	// ranks agreed on (nil = uniform decomposition, which a new System, a
	// (re)wired rank and every load of a set start from: cuts are for one
	// particle count) and the slab compute time of the evolve in progress,
	// which the next agreement weighs.
	cuts        []int
	slabCompute time.Duration
}

// NewSystem returns an empty system using the given kernel.
func NewSystem(kernel Kernel, eps float64) *System {
	return &System{Eps: eps, Eta: 0.02, DtMax: 1.0 / 64, kernel: kernel}
}

// SetParticles loads mass, position and velocity from the set.
func (s *System) SetParticles(p *data.Particles) {
	s.load(slices.Clone(p.Mass), slices.Clone(p.Pos), slices.Clone(p.Vel), slices.Clone(p.Key))
}

// load takes the columns as the system's own: nothing else may hold them.
// A set that comes without keys is keyed 1..N, as data.NewParticles keys one.
func (s *System) load(mass []float64, pos, vel []data.Vec3, keys []uint64) {
	if len(keys) == 0 && len(mass) > 0 {
		keys = make([]uint64, len(mass))
		for i := range keys {
			keys[i] = uint64(i + 1)
		}
	}
	s.mass, s.pos, s.vel, s.keys = mass, pos, vel, keys
	s.fresh = false
	s.cuts = nil
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
// is computed with the force kernel (counted in flops), and the forces stay
// cached for the next step.
func (s *System) Energy() (kin, pot float64) {
	kin, pot, _ = s.energy(nil) // solo: no collective to fail
	return kin, pot
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
	return s.step(nil, math.Inf(1))
}

// EvolveTo advances the system to model time t (it does not step past t:
// the final step is shortened to land exactly). The context is polled
// between shared steps, so cancellation aborts a long integration at the
// next step boundary with the state consistent.
func (s *System) EvolveTo(ctx context.Context, t float64) error {
	return s.evolve(ctx, t, nil)
}

// evolve is the one evolve loop: solo with c == nil, or as rank c.ID() of a
// gang, whose ranks all run it with the same t and take the same steps.
func (s *System) evolve(ctx context.Context, t float64, c *mpisim.Gang) error {
	if len(s.mass) == 0 {
		return ErrNoParticles
	}
	for s.time < t-1e-15 {
		// A gang's ranks poll the same ctx: worker services evolve under
		// Background, and a test cancelling a gang cancels every rank's
		// context, so the collective schedule stays aligned.
		if err := ctx.Err(); err != nil {
			return err
		}
		if _, err := s.step(c, t); err != nil {
			return err
		}
	}
	return nil
}

// step takes one shared Hermite step, shortened to land on t, and returns
// the dt taken. f0 is evaluated first unless it is cached at the current
// state (fresh: a solo Energy leaves it so).
func (s *System) step(c *mpisim.Gang, t float64) (float64, error) {
	if !s.fresh {
		if err := s.forces(c, &s.f0, false); err != nil {
			return 0, err
		}
		s.fresh = true
	}
	dt := s.sharedTimestep() // full arrays: identical on every rank
	if s.time+dt > t {
		dt = t - s.time
	}
	// The loop's test on the time this step ends at: every rank agrees
	// which step is the evolve's last.
	last := !(s.time+dt < t-1e-15)
	return dt, s.advance(c, dt, last)
}

// advance performs one predictor-evaluate-correct Hermite update with step
// dt, the evolve's last when last is set. s.f0 must hold the full force
// arrays.
func (s *System) advance(c *mpisim.Gang, dt float64, last bool) error {
	n := len(s.mass)
	dt2 := dt * dt / 2
	dt3 := dt * dt * dt / 6

	s.oldPos, s.oldVel = append(s.oldPos[:0], s.pos...), append(s.oldVel[:0], s.vel...)
	oldPos, oldVel := s.oldPos, s.oldVel

	// Predict all particles (O(N), replicated on every rank).
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
	if err := s.forces(c, &s.f1, last); err != nil {
		return err
	}

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
	return nil
}
