package sph

import (
	"context"
	"fmt"
	"slices"
	"time"

	"jungle/internal/amuse/data"
	"jungle/internal/core/kernel"
	"jungle/internal/deploy"
	"jungle/internal/mpisim"
	"jungle/internal/vtime"
)

// KindHydro is the worker kind this package registers: the Gadget
// equivalent. Multi-node workers span an mpisim world over the job's
// hosts (Fig. 5's "Worker 2 uses MPI").
const KindHydro = "hydro"

// hydroEfficiency is this kernel family's sustained-efficiency
// calibration knob (SPH + tree); fitted jointly with the other families
// against §6.2's scenario numbers — see DESIGN.md.
const hydroEfficiency = 5.313e-4

func init() {
	kernel.Register(KindHydro, newHydroService)
}

// hydroService hosts the Gadget worker. Its ranks are mpisim Gangs, placed
// one of two mutually exclusive ways: a multi-node job opens an mpisim
// World over its hosts (goroutine ranks sharing one Gas inside this
// worker), and a gang deployment (kernel.Shardable) makes this whole
// service one rank of a domain-decomposed kernel exchanging slabs over the
// gang's peer links.
type hydroService struct {
	res   *deploy.Resource
	gas   *Gas
	world *mpisim.World
	dev   *vtime.Device
	clock *vtime.Clock
	gi    *kernel.GangInfo
	gang  *mpisim.Gang
}

func newHydroService(cfg kernel.Config) (kernel.Service, error) {
	dev, err := kernel.PickDevice(cfg.Res, false)
	if err != nil {
		return nil, err
	}
	s := &hydroService{res: cfg.Res, gas: New(), dev: kernel.Derate(dev, hydroEfficiency),
		clock: vtime.NewClock(), gi: cfg.Gang}
	if len(cfg.Hosts) > 0 {
		s.dev = kernel.NodeDerate(s.dev, cfg.Res, cfg.Hosts[0])
	}
	if cfg.Gang != nil && len(cfg.Hosts) > 1 {
		return nil, fmt.Errorf("sph: gang ranks are single-node workers (rank %d got %d hosts); shard across workers or span nodes, not both", cfg.Gang.Rank, len(cfg.Hosts))
	}
	if len(cfg.Hosts) > 1 && cfg.Net != nil {
		w, err := mpisim.NewWorld(cfg.Net, cfg.Hosts)
		if err != nil {
			return nil, fmt.Errorf("sph: hydro MPI world: %w", err)
		}
		s.world = w
	}
	return s, nil
}

// SetGang implements kernel.Shardable: the worker host installs the wired
// communicator, which binds this service's clock.
func (s *hydroService) SetGang(g *mpisim.Gang) error {
	if s.gi == nil {
		return fmt.Errorf("sph: SetGang on a solo worker")
	}
	if g.ID() != s.gi.Rank || g.Size() != s.gi.Size {
		return fmt.Errorf("sph: gang %d/%d does not match configured rank %d/%d",
			g.ID(), g.Size(), s.gi.Rank, s.gi.Size)
	}
	g.Bind(s.clock)
	s.gang = g
	return nil
}

// Reshard implements kernel.Reshardable: install new slab boundaries on
// the gas. The SPH exchanges allgather variable-length slabs in rank
// order, so only the local row range changes; results are unaffected.
func (s *hydroService) Reshard(cuts []int) error {
	if s.gi == nil {
		return fmt.Errorf("sph: reshard on a solo worker")
	}
	return s.gas.SetCuts(cuts, s.gi.Size)
}

func (s *hydroService) Close() {
	if s.world != nil {
		s.world.Close()
	}
	if s.gang != nil {
		s.gang.Close()
	}
}

func (s *hydroService) Dispatch(method string, args []byte, at time.Duration) (kernel.Reply, time.Duration, error) {
	s.clock.AdvanceTo(at)
	switch method {
	case "setup":
		var a kernel.SetupHydroArgs
		if err := kernel.Decode(args, &a); err != nil {
			return kernel.Reply{}, s.clock.Now(), err
		}
		s.gas.SelfGravity = a.SelfGravity
		if a.EpsGrav > 0 {
			s.gas.EpsGrav = a.EpsGrav
		}
		if a.NTarget > 0 {
			s.gas.NTarget = a.NTarget
		}
		return kernel.EncodeReply(kernel.Empty{}), s.clock.Now(), nil
	case "set_particles":
		var pl kernel.ParticlesPayload
		if err := kernel.Decode(args, &pl); err != nil {
			return kernel.Reply{}, s.clock.Now(), err
		}
		if err := s.gas.SetParticles(kernel.PayloadToParticles(pl)); err != nil {
			return kernel.Reply{}, s.clock.Now(), err
		}
		return kernel.EncodeReply(kernel.Empty{}), s.clock.Now(), nil
	case "evolve":
		var a kernel.EvolveArgs
		if err := kernel.Decode(args, &a); err != nil {
			return kernel.Reply{}, s.clock.Now(), err
		}
		// With ranks, compute and slab exchange are accounted on the rank
		// clocks as they happen (the gang's is this clock, bound by SetGang;
		// the world's are its own, and this clock takes the latest). The
		// published flop total is informational only, so it is discarded
		// rather than charged again by the next energies.
		switch {
		case s.gang != nil:
			if err := s.gas.EvolveToComm(context.Background(), a.T, s.gang, s.dev); err != nil {
				return kernel.Reply{}, s.clock.Now(), err
			}
			s.gas.ResetFlops()
		case s.world != nil:
			s.world.SyncTo(s.clock.Now())
			if err := s.gas.EvolveToParallel(context.Background(), a.T, s.world, s.dev); err != nil {
				return kernel.Reply{}, s.clock.Now(), err
			}
			s.clock.AdvanceTo(s.world.MaxTime())
			s.gas.ResetFlops()
		default:
			if err := s.gas.EvolveTo(context.Background(), a.T); err != nil {
				return kernel.Reply{}, s.clock.Now(), err
			}
			s.clock.Advance(s.dev.Time(s.gas.ResetFlops(), 0))
		}
		return kernel.EncodeReply(kernel.Empty{}), s.clock.Now(), nil
	case "kick":
		var a kernel.KickArgs
		if err := kernel.Decode(args, &a); err != nil {
			return kernel.Reply{}, s.clock.Now(), err
		}
		if err := s.gas.Kick(context.Background(), a.DV); err != nil {
			return kernel.Reply{}, s.clock.Now(), err
		}
		return kernel.EncodeReply(kernel.Empty{}), s.clock.Now(), nil
	case "get_positions":
		return kernel.EncodeReply(kernel.VecResult{V: append([]data.Vec3(nil), s.gas.Positions()...)}), s.clock.Now(), nil
	case "get_masses":
		return kernel.EncodeReply(kernel.FloatsResult{X: append([]float64(nil), s.gas.Masses()...)}), s.clock.Now(), nil
	case "get_state":
		q, err := kernel.UnmarshalStateRequest(args)
		if err != nil {
			return kernel.Reply{}, s.clock.Now(), err
		}
		st := kernel.NewState(s.gas.N())
		for _, a := range q.Attrs {
			switch a {
			case data.AttrMass:
				st.AddFloat(a, s.gas.Masses())
			case data.AttrPos:
				st.AddVec(a, s.gas.Positions())
			case data.AttrVel:
				st.AddVec(a, s.gas.Velocities())
			case data.AttrInternalEnergy:
				st.AddFloat(a, s.gas.InternalEnergies())
			case data.AttrSmoothingLen:
				st.AddFloat(a, s.gas.SmoothingLens())
			case data.AttrDensity:
				st.AddFloat(a, s.gas.Densities())
			default:
				return kernel.Reply{}, s.clock.Now(), fmt.Errorf("sph: get_state: unknown attribute %q", a)
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
	case "inject_energy":
		var a kernel.InjectArgs
		if err := kernel.Decode(args, &a); err != nil {
			return kernel.Reply{}, s.clock.Now(), err
		}
		s.gas.InjectEnergy(a.Center, a.Radius, a.E)
		return kernel.EncodeReply(kernel.Empty{}), s.clock.Now(), nil
	case "energies":
		k, th, p := s.gas.Energy()
		s.clock.Advance(s.dev.Time(s.gas.ResetFlops(), 0))
		return kernel.EncodeReply(kernel.EnergiesResult{Kinetic: k, Thermal: th, Potential: p}), s.clock.Now(), nil
	case "stats":
		return kernel.EncodeReply(kernel.StatsResult{N: s.gas.N(), Time: s.gas.Time(), Steps: s.gas.Steps()}), s.clock.Now(), nil
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
		if s.gi == nil {
			return kernel.Reply{}, s.clock.Now(), fmt.Errorf("sph: rank_load needs a gang rank")
		}
		rows, compute := s.gas.TakeLoad(s.gi.Rank, s.gi.Size)
		return kernel.EncodeReply(kernel.RankLoadResult{
			Rank: s.gi.Rank, Rows: rows, ComputeNs: compute.Nanoseconds(),
		}), s.clock.Now(), nil
	case kernel.MethodCheckpoint, kernel.MethodRestore:
		out, err := kernel.ServeCheckpoint(s, method, args)
		return out, s.clock.Now(), err
	default:
		return kernel.Reply{}, s.clock.Now(), fmt.Errorf("%w: hydro.%s", kernel.ErrNoSuchMethod, method)
	}
}

// Snapshot implements kernel.Checkpointable: the full SPH phase-space
// state (mass, position, velocity, internal energy, smoothing length)
// plus the integrator clock. Density, pressure and sound speed are
// derived each step and are not checkpointed.
func (s *hydroService) Snapshot() (*kernel.Snapshot, error) {
	if s.gas.N() == 0 {
		return &kernel.Snapshot{Kind: KindHydro, VTime: s.clock.Now()}, nil
	}
	st := kernel.NewState(s.gas.N())
	st.AddFloat(data.AttrMass, s.gas.Masses())
	st.AddVec(data.AttrPos, s.gas.Positions())
	st.AddVec(data.AttrVel, s.gas.Velocities())
	st.AddFloat(data.AttrInternalEnergy, s.gas.InternalEnergies())
	st.AddFloat(data.AttrSmoothingLen, s.gas.SmoothingLens())
	return &kernel.Snapshot{
		Kind: KindHydro, Model: s.gas.Time(), Steps: s.gas.Steps(),
		VTime: s.clock.Now(), State: st,
	}, nil
}

// Restore implements kernel.Checkpointable.
func (s *hydroService) Restore(snap *kernel.Snapshot) error {
	if err := snap.CheckKind(KindHydro); err != nil {
		return err
	}
	if snap.State == nil {
		return nil // empty system checkpointed before particles were set
	}
	st := snap.State
	p := data.NewParticles(st.N)
	if err := kernel.ScatterState(p, st); err != nil {
		return err
	}
	if err := s.gas.SetParticles(p); err != nil {
		return err
	}
	s.gas.RestoreClock(snap.Model, snap.Steps)
	return nil
}

// floatColumn and vecColumn name the gas column a set_state attribute
// lands in.
func (s *hydroService) floatColumn(a string) ([]float64, bool) {
	switch a {
	case data.AttrMass:
		return s.gas.mass, true
	case data.AttrInternalEnergy:
		return s.gas.u, true
	}
	return nil, false
}

func (s *hydroService) vecColumn(a string) ([]data.Vec3, bool) {
	switch a {
	case data.AttrPos:
		return s.gas.pos, true
	case data.AttrVel:
		return s.gas.vel, true
	}
	return nil, false
}

// applyState decodes a set_state frame's columns straight into the gas's
// own. Everything that can fail — the particle count, the attribute names,
// the sign of every internal energy — is checked before the first write, so
// a refused frame leaves the state as it was.
func (s *hydroService) applyState(v *kernel.StateView) error {
	if v.N != s.gas.N() {
		return fmt.Errorf("sph: set_state: columns of %d particles, N %d", v.N, s.gas.N())
	}
	for i, a := range v.FloatAttrs {
		if _, ok := s.floatColumn(a); !ok {
			return fmt.Errorf("sph: set_state: unknown attribute %q", a)
		}
		for j := 0; a == data.AttrInternalEnergy && j < v.N; j++ {
			if v.FloatAt(i, j) <= 0 {
				return fmt.Errorf("sph: particle %d has non-positive internal energy", j)
			}
		}
	}
	for _, a := range v.VecAttrs {
		if _, ok := s.vecColumn(a); !ok {
			return fmt.Errorf("sph: set_state: unknown attribute %q", a)
		}
	}
	for i, a := range v.FloatAttrs {
		col, _ := s.floatColumn(a)
		v.FloatsInto(i, col)
	}
	for i, a := range v.VecAttrs {
		col, _ := s.vecColumn(a)
		v.VecsInto(i, col)
	}
	if slices.Contains(v.FloatAttrs, data.AttrMass) || slices.Contains(v.VecAttrs, data.AttrPos) {
		s.gas.invalidate()
	}
	return nil
}
