package abm

import (
	"fmt"
	"time"

	"jungle/internal/core/kernel"
	"jungle/internal/deploy"
	"jungle/internal/mpisim"
	"jungle/internal/vtime"
	"jungle/internal/wire"
)

// Kind is the worker kind this package registers. It does not exist in
// internal/core: registering and using it requires no core edits.
const Kind = "abm"

// Columnar attribute names of the agent layout. They are this kind's
// own vocabulary — the state payload carries attribute names verbatim,
// so a non-particle kind needs no additions to the amuse/data column
// set. Agent ids travel in the payload's key column.
const (
	AttrPos       = "agent_pos"       // vector: agent position
	AttrState     = "agent_state"     // float: the reacting, diffusing state
	AttrPotential = "agent_potential" // float: external potential at the agent
)

// abmEfficiency is this kernel family's sustained-efficiency calibration
// knob (stencil sweep over a columnar grid), in line with the other
// families' fits — see DESIGN.md.
const abmEfficiency = 2.5e-4

func init() {
	kernel.Register(Kind, newService)
}

// SetupArgs configures the colony (the "setup" call).
type SetupArgs struct {
	W, H int
	D    float64
	R    float64
	B    float64
	DT   float64
}

// StepArgs advances the colony a fixed number of generations.
type StepArgs struct {
	Steps int
}

// service hosts the agent-based worker — solo, or as one rank of a
// row-slab-decomposed gang (kernel.Shardable): every rank holds the full
// replicated colony, a step computes this rank's row slab of the next
// generation, and the slabs are exchanged over the gang's peer links
// before all ranks commit the identical assembled generation.
type service struct {
	res   *deploy.Resource
	host  string
	clock *vtime.Clock
	dev   *vtime.Device
	g     *Grid
	gang  *mpisim.Gang
}

func newService(cfg kernel.Config) (kernel.Service, error) {
	s := &service{res: cfg.Res, clock: vtime.NewClock()}
	if len(cfg.Hosts) > 0 {
		s.host = cfg.Hosts[0]
	}
	return s, nil
}

// SetGang implements kernel.Shardable: the worker host installs the wired
// communicator, which binds this service's clock so slab exchanges
// advance it like any other worker activity.
func (s *service) SetGang(g *mpisim.Gang) error {
	g.Bind(s.clock)
	s.gang = g
	return nil
}

func (s *service) Close() {
	if s.gang != nil {
		s.gang.Close()
	}
}

func (s *service) Dispatch(method string, args []byte, at time.Duration) (kernel.Reply, time.Duration, error) {
	s.clock.AdvanceTo(at)
	switch method {
	case "setup":
		var a SetupArgs
		if err := kernel.Decode(args, &a); err != nil {
			return kernel.Reply{}, s.clock.Now(), err
		}
		dev, err := kernel.PickDevice(s.res, false)
		if err != nil {
			return kernel.Reply{}, s.clock.Now(), err
		}
		s.dev = kernel.NodeDerate(kernel.Derate(dev, abmEfficiency), s.res, s.host)
		g, err := NewGrid(Params{W: a.W, H: a.H, D: a.D, R: a.R, B: a.B, DT: a.DT})
		if err != nil {
			return kernel.Reply{}, s.clock.Now(), err
		}
		s.g = g
		return kernel.EncodeReply(kernel.Empty{}), s.clock.Now(), nil
	case "set_state":
		v, err := kernel.ViewState(args)
		if err != nil {
			return kernel.Reply{}, s.clock.Now(), err
		}
		if err := s.checkState(v.N, v.FloatAttrs, v.VecAttrs); err != nil {
			return kernel.Reply{}, s.clock.Now(), err
		}
		// Checked whole, then decoded straight into the colony's columns.
		if v.HasKeys() {
			v.KeysInto(s.g.Key)
		}
		for i, a := range v.FloatAttrs {
			v.FloatsInto(i, s.floatColumn(a))
		}
		for i := range v.VecAttrs {
			v.VecsInto(i, s.g.Pos)
		}
		return kernel.EncodeReply(kernel.Empty{}), s.clock.Now(), nil
	case "get_state":
		q, err := kernel.UnmarshalStateRequest(args)
		if err != nil {
			return kernel.Reply{}, s.clock.Now(), err
		}
		if s.g == nil {
			return kernel.Reply{}, s.clock.Now(), fmt.Errorf("abm: get_state before setup")
		}
		st := kernel.NewState(s.g.N())
		st.Key = s.g.Key
		for _, a := range q.Attrs {
			switch a {
			case AttrPos:
				st.AddVec(a, s.g.Pos)
			case AttrState:
				st.AddFloat(a, s.g.U)
			case AttrPotential:
				st.AddFloat(a, s.g.Phi)
			default:
				return kernel.Reply{}, s.clock.Now(), fmt.Errorf("abm: get_state: unknown attribute %q", a)
			}
		}
		out, err := kernel.StateReply(st)
		return out, s.clock.Now(), err
	case "step":
		var a StepArgs
		if err := kernel.Decode(args, &a); err != nil {
			return kernel.Reply{}, s.clock.Now(), err
		}
		if err := s.step(a.Steps); err != nil {
			return kernel.Reply{}, s.clock.Now(), err
		}
		return kernel.EncodeReply(kernel.Empty{}), s.clock.Now(), nil
	case "stats":
		if s.g == nil {
			return kernel.Reply{}, s.clock.Now(), fmt.Errorf("abm: stats before setup")
		}
		return kernel.EncodeReply(kernel.StatsResult{
			N: s.g.N(), Time: s.g.Time(), Steps: s.g.Steps(), Flops: s.g.TotalState(),
		}), s.clock.Now(), nil
	case kernel.MethodCheckpoint, kernel.MethodRestore:
		out, err := kernel.ServeCheckpoint(s, method, args)
		return out, s.clock.Now(), err
	default:
		return kernel.Reply{}, s.clock.Now(), fmt.Errorf("%w: abm.%s", kernel.ErrNoSuchMethod, method)
	}
}

// step advances n generations — solo, or as one gang rank. A rank
// computes its row slab (all H rows solo), charges the compute on the
// service clock (which a gang binds), and in a gang allgathers the slabs
// and splices the others' in before all ranks commit. Every agent's next
// state is computed by exactly one rank with the solo formula, so the
// assembled generation is bit-identical to solo.
func (s *service) step(n int) error {
	if s.g == nil {
		return fmt.Errorf("abm: step before setup")
	}
	if n <= 0 {
		return fmt.Errorf("abm: step count %d", n)
	}
	size, rank := 1, 0
	if s.gang != nil {
		size, rank = s.gang.Size(), s.gang.ID()
	}
	lo, hi := SlabRows(s.g.P.H, size, rank)
	for i := 0; i < n; i++ {
		s.clock.Advance(s.dev.Time(s.g.StepRows(lo, hi), 0))
		if s.gang != nil {
			// A copy, not a view: AllgatherBytes takes the slice, and the
			// next step overwrites these rows.
			parts, err := mpisim.AllgatherBytes(s.gang, wire.AppendFloats(nil, s.g.NextRows(lo, hi)))
			if err != nil {
				return fmt.Errorf("abm: slab exchange: %w", err)
			}
			for p, part := range parts {
				if p == rank {
					continue
				}
				plo, phi := SlabRows(s.g.P.H, size, p)
				if err := s.g.SpliceRows(plo, phi, part); err != nil {
					return fmt.Errorf("abm: slab from rank %d: %w", p, err)
				}
			}
		}
		s.g.Commit()
	}
	return nil
}

// floatColumn names the grid column a scalar attribute lands in (nil for
// an attribute the colony does not have).
func (s *service) floatColumn(a string) []float64 {
	switch a {
	case AttrState:
		return s.g.U
	case AttrPotential:
		return s.g.Phi
	}
	return nil
}

// checkState is everything that can refuse agent columns, checked before
// any is written: the colony membership is fixed by setup (one agent per
// grid cell), so they must match the grid and name its attributes.
func (s *service) checkState(n int, floatAttrs, vecAttrs []string) error {
	if s.g == nil {
		return fmt.Errorf("abm: set_state before setup")
	}
	if n != s.g.N() {
		return fmt.Errorf("abm: state has %d agents, grid holds %d", n, s.g.N())
	}
	for _, a := range floatAttrs {
		if a != AttrState && a != AttrPotential {
			return fmt.Errorf("abm: set_state: unknown attribute %q", a)
		}
	}
	for _, a := range vecAttrs {
		if a != AttrPos {
			return fmt.Errorf("abm: set_state: unknown attribute %q", a)
		}
	}
	return nil
}

// applyState installs a snapshot's agent columns: state/potential columns
// replace wholesale, keys re-label.
func (s *service) applyState(st *kernel.StatePayload) error {
	if err := s.checkState(st.N, st.FloatAttrs, st.VecAttrs); err != nil {
		return err
	}
	if len(st.Key) == st.N {
		copy(s.g.Key, st.Key)
	}
	for i, a := range st.FloatAttrs {
		copy(s.floatColumn(a), st.FloatCols[i])
	}
	for i := range st.VecAttrs {
		copy(s.g.Pos, st.VecCols[i])
	}
	return nil
}

// Snapshot implements kernel.Checkpointable: the full colony (keys,
// positions, state, potential) plus the model clock. Every gang rank
// holds bitwise-identical replicated state, so one rank's snapshot
// restores any rank.
func (s *service) Snapshot() (*kernel.Snapshot, error) {
	if s.g == nil {
		return nil, fmt.Errorf("abm: checkpoint before setup")
	}
	st := kernel.NewState(s.g.N())
	st.Key = s.g.Key
	st.AddVec(AttrPos, s.g.Pos)
	st.AddFloat(AttrState, s.g.U)
	st.AddFloat(AttrPotential, s.g.Phi)
	return &kernel.Snapshot{
		Kind: Kind, Model: s.g.Time(), Steps: s.g.Steps(),
		VTime: s.clock.Now(), State: st,
	}, nil
}

// Restore implements kernel.Checkpointable. Setup must have run (the
// snapshot carries dynamic state, not grid configuration).
func (s *service) Restore(snap *kernel.Snapshot) error {
	if err := snap.CheckKind(Kind); err != nil {
		return err
	}
	if s.g == nil {
		return fmt.Errorf("abm: restore before setup")
	}
	st := snap.State
	if st == nil || st.Float(AttrState) == nil {
		return fmt.Errorf("abm: restore: snapshot missing the agent state column")
	}
	if err := s.applyState(st); err != nil {
		return err
	}
	s.g.RestoreClock(snap.Model, snap.Steps)
	return nil
}
