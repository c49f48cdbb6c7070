package abm

import (
	"context"
	"fmt"

	"jungle/internal/amuse/data"
	"jungle/internal/core/kernel"
)

// Caller is the coupler-side handle the Remote wrapper drives: typed RPCs
// plus the batched columnar state path. *core.Model satisfies it
// (structurally — this package does not import internal/core).
type Caller interface {
	Call(ctx context.Context, method string, args, reply any) error
	GetState(ctx context.Context, attrs ...string) (*kernel.StatePayload, error)
	SetState(ctx context.Context, st *kernel.StatePayload) error
}

// Field is the potential source the colony couples to, shaped like
// bridge.Field / core.FieldModel (again structural): any field kernel —
// nbody, tree, analytic — can bias the agents.
type Field interface {
	FieldAt(ctx context.Context, srcMass []float64, srcPos, targets []data.Vec3, eps float64) ([]data.Vec3, []float64, float64)
}

// Remote adapts a running abm worker to a typed colony handle.
type Remote struct {
	c Caller
	p Params
}

// NewRemote wraps a coupler-side model handle for a colony set up with p.
func NewRemote(c Caller, p Params) *Remote { return &Remote{c: c, p: p} }

// Step advances the colony n generations.
func (r *Remote) Step(ctx context.Context, n int) error {
	return r.c.Call(ctx, "step", StepArgs{Steps: n}, nil)
}

// Stats returns the colony's aggregate statistics (Flops carries the
// summed agent state).
func (r *Remote) Stats(ctx context.Context) (kernel.StatsResult, error) {
	var out kernel.StatsResult
	err := r.c.Call(ctx, "stats", kernel.Empty{}, &out)
	return out, err
}

// SeedState installs the deterministic initial colony for a seed.
func (r *Remote) SeedState(ctx context.Context, seed int64) error {
	st := kernel.NewState(r.p.W * r.p.H)
	st.AddFloat(AttrState, InitialU(r.p, seed))
	return r.c.SetState(ctx, st)
}

// Positions fetches the agent positions (field-kernel targets).
func (r *Remote) Positions(ctx context.Context) ([]data.Vec3, error) {
	st, err := r.c.GetState(ctx, AttrPos)
	if err != nil {
		return nil, err
	}
	pos := st.Vec(AttrPos)
	if pos == nil {
		return nil, fmt.Errorf("abm: worker returned no %s column", AttrPos)
	}
	return pos, nil
}

// CouplePotential samples the external field at every agent and pushes
// the potential column to the colony — one leg of the reaction–diffusion-
// in-a-potential coupling loop (sample, then Step, then resample).
func (r *Remote) CouplePotential(ctx context.Context, f Field) error {
	pos, err := r.Positions(ctx)
	if err != nil {
		return err
	}
	_, pot, _ := f.FieldAt(ctx, nil, nil, pos, 0)
	if len(pot) != len(pos) {
		return fmt.Errorf("abm: field returned %d potentials for %d agents", len(pot), len(pos))
	}
	st := kernel.NewState(len(pos))
	st.AddFloat(AttrPotential, pot)
	return r.c.SetState(ctx, st)
}
