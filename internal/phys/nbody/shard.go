package nbody

import (
	"context"
	"fmt"
	"time"

	"jungle/internal/amuse/data"
	"jungle/internal/core/kernel"
	"jungle/internal/mpisim"
)

// Sharded evolution: the system runs domain-decomposed across the ranks
// of a communicator (in production, a gang of worker processes — see
// internal/core/kernel's gang contract). Every rank holds the full
// replicated particle arrays; each Hermite force evaluation computes only
// this rank's slab of the interaction matrix (N²/K of the work) and the
// slab results — acceleration, jerk, potential of the boundary-and-
// interior particles the other ranks are missing — are exchanged as
// columnar StatePayload blobs over the gang's peer links, the same
// column-stream codec the direct data plane uses for state transfers.
// Because every rank ends each exchange with bit-identical full arrays
// and the shared timestep is computed from them deterministically, a K-
// rank gang produces exactly the solo integrator's results; only the
// virtual-time cost changes (compute shrinks by ~K, the halo exchange is
// priced by the vnet links between the rank hosts).

// Halo column names (the exchanged per-slab force columns).
const (
	haloAcc  = "acc"
	haloJerk = "jerk"
	haloPot  = "pot"
)

// SetCuts installs explicit slab boundaries for sharded evolution (the
// elastic-gang reshard hook). cuts must be a valid size+1 boundary
// vector over the current particle count; nil restores the uniform
// decomposition. Because every rank holds full replicated arrays,
// moving a boundary needs no state movement and cannot change results.
func (s *System) SetCuts(cuts []int, size int) error {
	if cuts == nil {
		s.cuts = nil
		return nil
	}
	if err := mpisim.ValidCuts(cuts, len(s.mass), size); err != nil {
		return fmt.Errorf("nbody: reshard: %w", err)
	}
	s.cuts = append([]int(nil), cuts...)
	return nil
}

// slabRange returns rank's row range under the installed cuts.
func (s *System) slabRange(rank, size int) (lo, hi int) {
	return mpisim.CutRange(s.cuts, rank, len(s.mass), size)
}

// TakeLoad returns this rank's current slab width and the virtual
// compute time accumulated by slab force work since the previous call,
// resetting the accumulator (the rank_load query).
func (s *System) TakeLoad(rank, size int) (rows int, compute time.Duration) {
	lo, hi := s.slabRange(rank, size)
	compute = s.loadCompute
	s.loadCompute = 0
	return hi - lo, compute
}

// forcesComm evaluates this rank's slab into out and allgathers the slab
// columns so every rank holds the full force arrays. Compute is accounted
// on the communicator's clock; exchange time comes from the link models.
func (s *System) forcesComm(c mpisim.Comm, lo, hi int, out *Forces) error {
	flops := s.kernel.ForcesSlab(s.mass, s.pos, s.vel, s.Eps*s.Eps, lo, hi, out)
	mpisim.ComputeFlops(c, s.kernel.Device(), flops, 0)
	s.loadCompute += s.kernel.Device().Time(flops, 0)

	st := kernel.NewState(hi - lo)
	st.AddVec(haloAcc, out.Acc[lo:hi]).
		AddVec(haloJerk, out.Jerk[lo:hi]).
		AddFloat(haloPot, out.Pot[lo:hi])
	blob, err := kernel.MarshalState(st)
	if err != nil {
		return fmt.Errorf("nbody: encode halo: %w", err)
	}
	blobs, err := mpisim.AllgatherBytes(c, blob)
	if err != nil {
		return fmt.Errorf("nbody: halo exchange: %w", err)
	}
	n := len(s.mass)
	for p, b := range blobs {
		if p == c.ID() {
			continue
		}
		plo, phi := mpisim.CutRange(s.cuts, p, n, c.Size())
		pst, err := kernel.UnmarshalState(b)
		if err != nil {
			return fmt.Errorf("nbody: decode halo from rank %d: %w", p, err)
		}
		acc, jerk, pot := pst.Vec(haloAcc), pst.Vec(haloJerk), pst.Float(haloPot)
		if pst.N != phi-plo || acc == nil || jerk == nil || pot == nil {
			return fmt.Errorf("nbody: halo from rank %d: want %d rows of acc/jerk/pot, got N=%d", p, phi-plo, pst.N)
		}
		copy(out.Acc[plo:phi], acc)
		copy(out.Jerk[plo:phi], jerk)
		copy(out.Pot[plo:phi], pot)
	}
	return nil
}

// EvolveToComm advances the system to model time t as rank c.ID() of a
// gang. All ranks must call it with the same t. Compute and exchange time
// are accounted on the communicator's clock as they happen (callers must
// not re-account ResetFlops); the flop counter is not touched.
func (s *System) EvolveToComm(ctx context.Context, t float64, c mpisim.Comm) error {
	if c == nil || c.Size() == 1 {
		// Degenerate gang: fall back to the solo path, but keep this
		// call's accounting contract (advance the clock here, not via
		// ResetFlops in the caller).
		if err := s.EvolveTo(ctx, t); err != nil {
			return err
		}
		if c != nil {
			mpisim.ComputeFlops(c, s.kernel.Device(), s.ResetFlops(), 0)
		}
		return nil
	}
	n := len(s.mass)
	if n == 0 {
		return ErrNoParticles
	}
	for s.time < t-1e-15 {
		// All ranks poll the same ctx: worker services evolve under
		// Background, and a test cancelling a gang cancels every rank's
		// context, so the collective schedule stays aligned.
		if err := ctx.Err(); err != nil {
			return err
		}
		// Re-read the slab range every step: a reshard lands between
		// evolve calls, but re-reading here keeps the range honest if a
		// future caller ever reshards inside a long evolve window.
		lo, hi := s.slabRange(c.ID(), c.Size())
		// Refresh forces at the current state (the solo path's fresh
		// cache does not span decompositions), mirroring EvolveTo's
		// refresh-evaluate pair so step counts and results match the
		// solo integrator exactly.
		if err := s.forcesComm(c, lo, hi, &s.f0); err != nil {
			return err
		}
		dt := s.sharedTimestep() // full arrays: identical on every rank
		if s.time+dt > t {
			dt = t - s.time
		}
		if err := s.advanceComm(c, lo, hi, dt); err != nil {
			return err
		}
	}
	s.fresh = false
	return nil
}

// advanceComm is one sharded predictor-evaluate-correct Hermite step.
// s.f0 must hold the full force arrays (forcesComm).
func (s *System) advanceComm(c mpisim.Comm, lo, hi int, dt float64) error {
	n := len(s.mass)
	dt2 := dt * dt / 2
	dt3 := dt * dt * dt / 6

	oldPos := append([]data.Vec3(nil), s.pos...)
	oldVel := append([]data.Vec3(nil), s.vel...)

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

	// Evaluate at prediction: slab + halo exchange (O(N²/K) + columns).
	if err := s.forcesComm(c, lo, hi, &s.f1); err != nil {
		return err
	}

	// Correct all particles (Hermite 4th order, Makino & Aarseth 1992).
	for i := 0; i < n; i++ {
		a0, j0 := s.f0.Acc[i], s.f0.Jerk[i]
		a1, j1 := s.f1.Acc[i], s.f1.Jerk[i]
		s.vel[i] = oldVel[i].
			Add(a0.Add(a1).Scale(dt / 2)).
			Add(j0.Sub(j1).Scale(dt * dt / 12))
		s.pos[i] = oldPos[i].
			Add(oldVel[i].Add(s.vel[i]).Scale(dt / 2)).
			Add(a0.Sub(a1).Scale(dt * dt / 12))
	}

	s.time += dt
	s.steps++
	return nil
}

// EnergyComm returns (kinetic, potential) computed cooperatively: each
// rank evaluates its slab's potential and partial sums, and one
// AllreduceSum over the gang's peer links produces the totals on every
// rank. Compute is accounted on the communicator's clock.
func (s *System) EnergyComm(c mpisim.Comm) (kin, pot float64, err error) {
	if c == nil || c.Size() == 1 {
		k, p := s.Energy()
		if c != nil {
			mpisim.ComputeFlops(c, s.kernel.Device(), s.ResetFlops(), 0)
		}
		return k, p, nil
	}
	n := len(s.mass)
	if n == 0 {
		return 0, 0, ErrNoParticles
	}
	lo, hi := s.slabRange(c.ID(), c.Size())
	flops := s.kernel.ForcesSlab(s.mass, s.pos, s.vel, s.Eps*s.Eps, lo, hi, &s.f0)
	mpisim.ComputeFlops(c, s.kernel.Device(), flops, 0)
	partial := make([]float64, 2)
	for i := lo; i < hi; i++ {
		partial[0] += 0.5 * s.mass[i] * s.vel[i].Norm2()
		partial[1] += 0.5 * s.mass[i] * s.f0.Pot[i]
	}
	total, err := mpisim.AllreduceSum(c, partial)
	if err != nil {
		return 0, 0, fmt.Errorf("nbody: energy reduce: %w", err)
	}
	s.fresh = false // f0 holds only this rank's slab
	return total[0], total[1], nil
}
