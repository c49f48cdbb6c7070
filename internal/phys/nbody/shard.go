package nbody

import (
	"context"
	"fmt"

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

// slab evaluates into out the rows this caller computes: all of them with
// c == nil, their flops added to s.flops, or rank c.ID()'s slab under the
// cuts the gang agreed on, its compute charged on the communicator's clock.
func (s *System) slab(c *mpisim.Gang, out *Forces) (lo, hi int, flops float64) {
	lo, hi = 0, len(s.mass)
	if c != nil {
		lo, hi = mpisim.CutRange(s.cuts, c.ID(), hi, c.Size())
	}
	flops = s.kernel.ForcesSlab(s.mass, s.pos, s.vel, s.Eps*s.Eps, lo, hi, out)
	if c == nil {
		s.flops += flops
	} else {
		mpisim.ComputeFlops(c, s.kernel.Device(), flops, 0)
	}
	return lo, hi, flops
}

// forces is one force evaluation into out. In a gang it allgathers the slab
// columns so every rank holds the full force arrays; exchange time comes
// from the link models. The evolve's last exchange (last) also carries the
// slab compute the ranks balance on (mpisim.Gang.CarryLoad).
func (s *System) forces(c *mpisim.Gang, out *Forces, last bool) error {
	lo, hi, flops := s.slab(c, out)
	if c == nil {
		return nil
	}
	s.slabCompute += s.kernel.Device().Time(flops, 0)
	if last {
		c.CarryLoad(s.slabCompute)
	}

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
// not re-account ResetFlops); the flop counter is not touched. The ranks
// end it agreeing the cuts of the next evolve from this one's slab compute,
// which its last halo exchange carries (mpisim.Rebalance), and it returns
// the load they agreed them on. A gang of one is a solo evolve, charged
// once for all its flops, as a solo worker's is.
func (s *System) EvolveToComm(ctx context.Context, t float64, c *mpisim.Gang) (mpisim.Load, error) {
	if c == nil || c.Size() == 1 {
		if err := s.evolve(ctx, t, nil); err != nil {
			return mpisim.Load{}, err
		}
		if c != nil {
			mpisim.ComputeFlops(c, s.kernel.Device(), s.ResetFlops(), 0)
		}
		return mpisim.Load{}, nil
	}
	s.slabCompute = 0
	steps := s.steps
	if err := s.evolve(ctx, t, c); err != nil {
		return mpisim.Load{}, err
	}
	if s.steps == steps {
		// Every rank took no step (a replay of an evolve the snapshot
		// already covers): there is no work to balance on.
		return mpisim.Load{}, nil
	}
	var load mpisim.Load
	var err error
	s.cuts, load, err = mpisim.Rebalance(c, s.cuts, len(s.mass))
	return load, err
}

// EnergyComm returns (kinetic, potential) computed cooperatively: each
// rank evaluates its slab's potential and partial sums, and one
// AllreduceSum over the gang's peer links produces the totals on every
// rank. Compute is accounted on the communicator's clock.
func (s *System) EnergyComm(c *mpisim.Gang) (kin, pot float64, err error) {
	if c == nil || c.Size() == 1 {
		kin, pot, _ = s.energy(nil)
		if c != nil {
			mpisim.ComputeFlops(c, s.kernel.Device(), s.ResetFlops(), 0)
		}
		return kin, pot, nil
	}
	if len(s.mass) == 0 {
		return 0, 0, ErrNoParticles
	}
	return s.energy(c)
}

// energy is Energy's and EnergyComm's one body: the energies summed over
// the rows slab evaluates. Solo, the forces stay cached for the next step;
// a gang rank holds only its slab's, and one AllreduceSum totals the
// ranks' partial sums.
func (s *System) energy(c *mpisim.Gang) (kin, pot float64, err error) {
	lo, hi := 0, len(s.mass)
	if c == nil {
		if !s.fresh {
			s.slab(nil, &s.f0)
			s.fresh = true
		}
	} else {
		lo, hi, _ = s.slab(c, &s.f0)
		s.fresh = false
	}
	for i := lo; i < hi; i++ {
		kin += 0.5 * s.mass[i] * s.vel[i].Norm2()
		pot += 0.5 * s.mass[i] * s.f0.Pot[i]
	}
	if c == nil {
		return kin, pot, nil
	}
	total, err := mpisim.AllreduceSum(c, []float64{kin, pot})
	if err != nil {
		return 0, 0, fmt.Errorf("nbody: energy reduce: %w", err)
	}
	return total[0], total[1], nil
}
