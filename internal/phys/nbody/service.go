package nbody

import (
	"context"
	"fmt"
	"time"

	"jungle/internal/amuse/data"
	"jungle/internal/core/kernel"
	"jungle/internal/deploy"
	"jungle/internal/mpisim"
	"jungle/internal/vtime"
)

// KindGravity is the worker kind this package registers: the PhiGRAPE
// equivalent (Fig. 3's gravitational-dynamics box).
const KindGravity = "gravity"

// gravityEfficiency is this kernel family's sustained-efficiency
// calibration knob (Hermite direct summation); fitted jointly with the
// other families against §6.2's scenario numbers — see DESIGN.md.
const gravityEfficiency = 1.842e-4

func init() {
	kernel.Register(KindGravity, newGravityService)
}

// gravityService hosts the PhiGRAPE worker — solo, or as one rank of a
// domain-decomposed gang (kernel.Shardable): every rank holds the full
// replicated particle arrays, evolve computes this rank's slab of the
// interaction matrix and exchanges the slab forces over the gang's peer
// links, and energies reduce across ranks.
type gravityService struct {
	res   *deploy.Resource
	host  string // the node this rank runs on (per-node speed derating)
	clock *vtime.Clock
	sys   *System
	dev   *vtime.Device
	gi    *kernel.GangInfo
	gang  *mpisim.Gang
}

func newGravityService(cfg kernel.Config) (kernel.Service, error) {
	s := &gravityService{res: cfg.Res, clock: vtime.NewClock(), gi: cfg.Gang}
	if len(cfg.Hosts) > 0 {
		s.host = cfg.Hosts[0]
	}
	return s, nil
}

// Reshard implements kernel.Reshardable: install new slab boundaries.
// The coupler broadcasts the same cuts to every rank between evolves, so
// all ranks switch decomposition at the same gang epoch.
func (s *gravityService) Reshard(cuts []int) error {
	if s.gi == nil {
		return fmt.Errorf("nbody: reshard on a solo worker")
	}
	if s.sys == nil {
		return fmt.Errorf("nbody: reshard before setup")
	}
	return s.sys.SetCuts(cuts, s.gi.Size)
}

// SetGang implements kernel.Shardable: the worker host installs the wired
// communicator, which binds this service's clock so halo exchanges and
// reductions advance it like any other worker activity.
func (s *gravityService) SetGang(g *mpisim.Gang) error {
	if s.gi == nil {
		return fmt.Errorf("nbody: SetGang on a solo worker")
	}
	if g.ID() != s.gi.Rank || g.Size() != s.gi.Size {
		return fmt.Errorf("nbody: gang %d/%d does not match configured rank %d/%d",
			g.ID(), g.Size(), s.gi.Rank, s.gi.Size)
	}
	g.Bind(s.clock)
	s.gang = g
	return nil
}

func (s *gravityService) Close() {
	if s.gang != nil {
		s.gang.Close()
	}
}

func (s *gravityService) Dispatch(method string, args []byte, at time.Duration) (kernel.Reply, time.Duration, error) {
	s.clock.AdvanceTo(at)
	switch method {
	case "setup":
		var a kernel.SetupGravityArgs
		if err := kernel.Decode(args, &a); err != nil {
			return kernel.Reply{}, s.clock.Now(), err
		}
		wantGPU := a.Kernel == "phigrape-gpu"
		dev, err := kernel.PickDevice(s.res, wantGPU)
		if err != nil {
			return kernel.Reply{}, s.clock.Now(), err
		}
		s.dev = kernel.NodeDerate(kernel.Derate(dev, gravityEfficiency), s.res, s.host)
		var k Kernel
		if wantGPU {
			k = NewGPUKernel(s.dev)
		} else {
			k = NewCPUKernel(s.dev)
		}
		s.sys = NewSystem(k, a.Eps)
		if a.Eta > 0 {
			s.sys.Eta = a.Eta
		}
		return kernel.EncodeReply(kernel.Empty{}), s.clock.Now(), nil
	case "set_particles":
		var pl kernel.ParticlesPayload
		if err := kernel.Decode(args, &pl); err != nil {
			return kernel.Reply{}, s.clock.Now(), err
		}
		s.sys.SetParticles(kernel.PayloadToParticles(pl))
		return kernel.EncodeReply(kernel.Empty{}), s.clock.Now(), nil
	case "evolve":
		var a kernel.EvolveArgs
		if err := kernel.Decode(args, &a); err != nil {
			return kernel.Reply{}, s.clock.Now(), err
		}
		if s.gang != nil {
			// Sharded: EvolveToComm accounts compute and halo exchange
			// on this clock (bound by SetGang) as they happen.
			if err := s.sys.EvolveToComm(context.Background(), a.T, s.gang); err != nil {
				return kernel.Reply{}, s.clock.Now(), err
			}
			return kernel.EncodeReply(kernel.Empty{}), s.clock.Now(), nil
		}
		if err := s.sys.EvolveTo(context.Background(), a.T); err != nil {
			return kernel.Reply{}, s.clock.Now(), err
		}
		s.clock.Advance(s.dev.Time(s.sys.ResetFlops(), 0))
		return kernel.EncodeReply(kernel.Empty{}), s.clock.Now(), nil
	case "kick":
		var a kernel.KickArgs
		if err := kernel.Decode(args, &a); err != nil {
			return kernel.Reply{}, s.clock.Now(), err
		}
		if err := s.sys.Kick(context.Background(), a.DV); err != nil {
			return kernel.Reply{}, s.clock.Now(), err
		}
		return kernel.EncodeReply(kernel.Empty{}), s.clock.Now(), nil
	case "get_positions":
		return kernel.EncodeReply(kernel.VecResult{V: append([]data.Vec3(nil), s.sys.Positions()...)}), s.clock.Now(), nil
	case "get_velocities":
		return kernel.EncodeReply(kernel.VecResult{V: append([]data.Vec3(nil), s.sys.Velocities()...)}), s.clock.Now(), nil
	case "get_masses":
		return kernel.EncodeReply(kernel.FloatsResult{X: append([]float64(nil), s.sys.Masses()...)}), s.clock.Now(), nil
	case "get_state":
		q, err := kernel.UnmarshalStateRequest(args)
		if err != nil {
			return kernel.Reply{}, s.clock.Now(), err
		}
		st := kernel.NewState(s.sys.N())
		st.Key = s.sys.Keys()
		for _, a := range q.Attrs {
			switch a {
			case data.AttrMass:
				st.AddFloat(a, s.sys.Masses())
			case data.AttrPos:
				st.AddVec(a, s.sys.Positions())
			case data.AttrVel:
				st.AddVec(a, s.sys.Velocities())
			default:
				return kernel.Reply{}, s.clock.Now(), fmt.Errorf("nbody: get_state: unknown attribute %q", a)
			}
		}
		out, err := kernel.StateReply(st)
		return out, s.clock.Now(), err
	case "set_state":
		v, err := kernel.ViewState(args)
		if err != nil {
			return kernel.Reply{}, s.clock.Now(), err
		}
		if err := s.applyState(&v); err != nil {
			return kernel.Reply{}, s.clock.Now(), err
		}
		return kernel.EncodeReply(kernel.Empty{}), s.clock.Now(), nil
	case "set_mass":
		var a kernel.SetMassArgs
		if err := kernel.Decode(args, &a); err != nil {
			return kernel.Reply{}, s.clock.Now(), err
		}
		if a.Index < 0 || a.Index >= s.sys.N() {
			return kernel.Reply{}, s.clock.Now(), fmt.Errorf("nbody: set_mass index %d out of range", a.Index)
		}
		s.sys.SetMass(a.Index, a.Mass)
		return kernel.EncodeReply(kernel.Empty{}), s.clock.Now(), nil
	case "energies":
		if s.gang != nil {
			k, p, err := s.sys.EnergyComm(s.gang)
			if err != nil {
				return kernel.Reply{}, s.clock.Now(), err
			}
			return kernel.EncodeReply(kernel.EnergiesResult{Kinetic: k, Potential: p}), s.clock.Now(), nil
		}
		k, p := s.sys.Energy()
		s.clock.Advance(s.dev.Time(s.sys.ResetFlops(), 0))
		return kernel.EncodeReply(kernel.EnergiesResult{Kinetic: k, Potential: p}), s.clock.Now(), nil
	case "stats":
		return kernel.EncodeReply(kernel.StatsResult{N: s.sys.N(), Time: s.sys.Time(), Steps: s.sys.Steps()}), s.clock.Now(), nil
	case kernel.MethodReshard:
		var a kernel.ReshardArgs
		if err := kernel.Decode(args, &a); err != nil {
			return kernel.Reply{}, s.clock.Now(), err
		}
		if err := s.Reshard(a.Cuts); err != nil {
			return kernel.Reply{}, s.clock.Now(), err
		}
		return kernel.EncodeReply(kernel.Empty{}), s.clock.Now(), nil
	case kernel.MethodRankLoad:
		if s.gi == nil || s.sys == nil {
			return kernel.Reply{}, s.clock.Now(), fmt.Errorf("nbody: rank_load needs a gang rank after setup")
		}
		rows, compute := s.sys.TakeLoad(s.gi.Rank, s.gi.Size)
		return kernel.EncodeReply(kernel.RankLoadResult{
			Rank: s.gi.Rank, Rows: rows, ComputeNs: compute.Nanoseconds(),
		}), s.clock.Now(), nil
	case kernel.MethodCheckpoint, kernel.MethodRestore:
		out, err := kernel.ServeCheckpoint(s, method, args)
		return out, s.clock.Now(), err
	default:
		return kernel.Reply{}, s.clock.Now(), fmt.Errorf("%w: gravity.%s", kernel.ErrNoSuchMethod, method)
	}
}

// Snapshot implements kernel.Checkpointable: the full phase-space state
// (mass, position, velocity, keys) plus the integrator clock. Every gang
// rank holds bitwise-identical replicated state, so one rank's snapshot
// restores any rank.
func (s *gravityService) Snapshot() (*kernel.Snapshot, error) {
	if s.sys == nil {
		return nil, fmt.Errorf("nbody: checkpoint before setup")
	}
	st := kernel.NewState(s.sys.N())
	st.Key = s.sys.Keys()
	st.AddFloat(data.AttrMass, s.sys.Masses())
	st.AddVec(data.AttrPos, s.sys.Positions())
	st.AddVec(data.AttrVel, s.sys.Velocities())
	return &kernel.Snapshot{
		Kind: KindGravity, Model: s.sys.Time(), Steps: s.sys.Steps(),
		VTime: s.clock.Now(), State: st,
	}, nil
}

// Restore implements kernel.Checkpointable. Setup must have run (the
// snapshot carries dynamic state, not kernel configuration); the particle
// membership is replaced wholesale.
func (s *gravityService) Restore(snap *kernel.Snapshot) error {
	if err := snap.CheckKind(KindGravity); err != nil {
		return err
	}
	if s.sys == nil {
		return fmt.Errorf("nbody: restore before setup")
	}
	st := snap.State
	if st == nil || st.Float(data.AttrMass) == nil || st.Vec(data.AttrPos) == nil || st.Vec(data.AttrVel) == nil {
		return fmt.Errorf("nbody: restore: snapshot missing mass/position/velocity columns")
	}
	p := data.NewParticles(st.N)
	if len(st.Key) == st.N {
		copy(p.Key, st.Key)
	}
	if err := kernel.ScatterState(p, st); err != nil {
		return err
	}
	s.sys.SetParticles(p)
	s.sys.RestoreClock(snap.Model, snap.Steps)
	return nil
}

// applyState decodes a set_state frame's columns straight into the
// system's own. Everything that can fail is checked before the first write,
// so a refused frame leaves the state as it was.
func (s *gravityService) applyState(v *kernel.StateView) error {
	if v.N != s.sys.N() {
		return fmt.Errorf("nbody: set_state: columns of %d particles, N %d", v.N, s.sys.N())
	}
	for _, a := range v.FloatAttrs {
		if a != data.AttrMass {
			return fmt.Errorf("nbody: set_state: unknown attribute %q", a)
		}
	}
	for _, a := range v.VecAttrs {
		if a != data.AttrPos && a != data.AttrVel {
			return fmt.Errorf("nbody: set_state: unknown attribute %q", a)
		}
	}
	for i := range v.FloatAttrs {
		v.FloatsInto(i, s.sys.mass)
	}
	for i, a := range v.VecAttrs {
		if a == data.AttrPos {
			v.VecsInto(i, s.sys.pos)
		} else {
			v.VecsInto(i, s.sys.vel)
		}
	}
	s.sys.fresh = false // cached forces are stale, once for the whole frame
	return nil
}
