package analytic

import (
	"context"
	"fmt"
	"time"

	"jungle/internal/amuse/data"
	"jungle/internal/core/kernel"
	"jungle/internal/vtime"
)

// Kind is the worker kind this package registers. It does not exist in
// internal/core: registering and using it requires no core edits.
const Kind = "analytic"

func init() {
	kernel.Register(Kind, newService)
}

// SetupArgs configures the analytic worker.
type SetupArgs struct {
	M      float64
	A      float64
	Center data.Vec3
}

// service hosts the analytic background-field worker. The closed-form
// evaluation is so cheap that any CPU device model will do.
type service struct {
	clock *vtime.Clock
	dev   *vtime.Device
	pot   Plummer
}

func newService(cfg kernel.Config) (kernel.Service, error) {
	dev, err := kernel.PickDevice(cfg.Res, false)
	if err != nil {
		return nil, err
	}
	return &service{clock: vtime.NewClock(), dev: dev}, nil
}

func (s *service) Close() {}

func (s *service) Dispatch(method string, args []byte, at time.Duration) (kernel.Reply, time.Duration, error) {
	s.clock.AdvanceTo(at)
	switch method {
	case "setup":
		var a SetupArgs
		if err := kernel.Decode(args, &a); err != nil {
			return kernel.Reply{}, s.clock.Now(), err
		}
		if a.M <= 0 || a.A <= 0 {
			return kernel.Reply{}, s.clock.Now(), fmt.Errorf("analytic: non-positive mass or scale (M=%v, a=%v)", a.M, a.A)
		}
		s.pot = Plummer{M: a.M, A: a.A, Center: a.Center}
		return kernel.EncodeReply(kernel.Empty{}), s.clock.Now(), nil
	case "field_at":
		var a kernel.FieldAtArgs
		if err := kernel.Decode(args, &a); err != nil {
			return kernel.Reply{}, s.clock.Now(), err
		}
		acc := make([]data.Vec3, len(a.Targets))
		pot := make([]float64, len(a.Targets))
		flops := s.pot.FieldAt(a.Targets, acc, pot)
		s.clock.Advance(s.dev.Time(flops, 0))
		return kernel.EncodeReply(kernel.FieldAtResult{Acc: acc, Pot: pot}), s.clock.Now(), nil
	case "stats":
		return kernel.EncodeReply(kernel.StatsResult{}), s.clock.Now(), nil
	case kernel.MethodCheckpoint, kernel.MethodRestore:
		out, err := kernel.ServeCheckpoint(s, method, args)
		return out, s.clock.Now(), err
	default:
		return kernel.Reply{}, s.clock.Now(), fmt.Errorf("%w: analytic.%s", kernel.ErrNoSuchMethod, method)
	}
}

// Snapshot implements kernel.Checkpointable. A closed-form potential has
// no evolving state, but checkpointing the parameters keeps a resumed
// simulation honest even if the setup replay is ever skipped.
func (s *service) Snapshot() (*kernel.Snapshot, error) {
	return &kernel.Snapshot{
		Kind: Kind, VTime: s.clock.Now(),
		Extra: kernel.Encode(SetupArgs{M: s.pot.M, A: s.pot.A, Center: s.pot.Center}),
	}, nil
}

// Restore implements kernel.Checkpointable.
func (s *service) Restore(snap *kernel.Snapshot) error {
	if err := snap.CheckKind(Kind); err != nil {
		return err
	}
	var a SetupArgs
	if err := kernel.Decode(snap.Extra, &a); err != nil {
		return err
	}
	s.pot = Plummer{M: a.M, A: a.A, Center: a.Center}
	return nil
}

// Caller is the coupler-side handle the Remote wrapper drives: one typed
// RPC per call, bounded by the caller's context. *core.Model satisfies
// it.
type Caller interface {
	Call(ctx context.Context, method string, args, reply any) error
}

// Remote adapts a running analytic worker to the bridge.Field interface
// (structurally — this package does not import phys/bridge).
type Remote struct {
	c Caller
}

// NewRemote wraps a coupler-side model handle.
func NewRemote(c Caller) *Remote { return &Remote{c: c} }

// Name implements bridge.Field.
func (r *Remote) Name() string { return Kind }

// FieldAt implements bridge.Field. The analytic background ignores the
// source particles; eps is meaningless for a closed-form potential.
func (r *Remote) FieldAt(ctx context.Context, srcMass []float64, srcPos, targets []data.Vec3, eps float64) ([]data.Vec3, []float64, float64) {
	var out kernel.FieldAtResult
	if err := r.c.Call(ctx, "field_at", kernel.FieldAtArgs{Targets: targets}, &out); err != nil {
		return make([]data.Vec3, len(targets)), make([]float64, len(targets)), 0
	}
	return out.Acc, out.Pot, 0
}
