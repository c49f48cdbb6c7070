package bridge

import (
	"context"
	"fmt"
	"time"

	"jungle/internal/amuse/data"
	"jungle/internal/core/kernel"
	"jungle/internal/phys/stellar"
	"jungle/internal/vtime"
)

// KindStellar is the worker kind this package registers: the SSE
// equivalent. The adapter lives here (not in internal/phys/stellar)
// because the worker speaks N-body units and the unit conversion is this
// package's SSEAdapter.
const KindStellar = "stellar"

func init() {
	kernel.Register(KindStellar, newStellarService)
}

// stellarService hosts the SSE worker ("nearly trivial" lookups — no
// device model needed beyond a tiny per-call cost).
type stellarService struct {
	clock   *vtime.Clock
	adapter *SSEAdapter
}

func newStellarService(kernel.Config) (kernel.Service, error) {
	return &stellarService{clock: vtime.NewClock()}, nil
}

func (s *stellarService) Close() {}

func (s *stellarService) Dispatch(method string, args []byte, at time.Duration) (kernel.Reply, time.Duration, error) {
	s.clock.AdvanceTo(at)
	switch method {
	case "setup":
		var a kernel.SetupStellarArgs
		if err := kernel.Decode(args, &a); err != nil {
			return kernel.Reply{}, s.clock.Now(), err
		}
		pop, err := stellar.NewPopulation(stellar.New(), a.MassesMSun)
		if err != nil {
			return kernel.Reply{}, s.clock.Now(), err
		}
		ad, err := NewSSEAdapter(pop, a.MyrPerTime, a.NBodyPerMSun)
		if err != nil {
			return kernel.Reply{}, s.clock.Now(), err
		}
		s.adapter = ad
		return kernel.EncodeReply(kernel.Empty{}), s.clock.Now(), nil
	case "evolve":
		var a kernel.EvolveArgs
		if err := kernel.Decode(args, &a); err != nil {
			return kernel.Reply{}, s.clock.Now(), err
		}
		events, err := s.adapter.EvolveTo(context.Background(), a.T)
		if err != nil {
			return kernel.Reply{}, s.clock.Now(), err
		}
		out := kernel.StellarEvolveResult{}
		for _, ev := range events {
			out.Events = append(out.Events, kernel.StellarEventPayload{
				Index: ev.Index, MassLoss: ev.MassLoss, SN: ev.SN,
			})
		}
		s.clock.Advance(time.Duration(len(s.adapter.Pop.Stars)) * 200 * time.Nanosecond)
		return kernel.EncodeReply(out), s.clock.Now(), nil
	case "get_state":
		q, err := kernel.UnmarshalStateRequest(args)
		if err != nil {
			return kernel.Reply{}, s.clock.Now(), err
		}
		out, err := s.gatherState(q.Attrs)
		return out, s.clock.Now(), err
	case "stats":
		n := 0
		if s.adapter != nil {
			n = len(s.adapter.Pop.Stars)
		}
		return kernel.EncodeReply(kernel.StatsResult{N: n}), s.clock.Now(), nil
	case kernel.MethodCheckpoint, kernel.MethodRestore:
		out, err := kernel.ServeCheckpoint(s, method, args)
		return out, s.clock.Now(), err
	default:
		return kernel.Reply{}, s.clock.Now(), fmt.Errorf("%w: stellar.%s", kernel.ErrNoSuchMethod, method)
	}
}

// stellarExtra is the SSE worker's snapshot payload: per-star evolving
// state has no natural columnar shape (types, supernova flags), so the
// whole population rides the kind-private blob.
type stellarExtra struct {
	Stars      []stellar.Star
	TimeMyr    float64
	Supernovae int
}

// Snapshot implements kernel.Checkpointable.
func (s *stellarService) Snapshot() (*kernel.Snapshot, error) {
	if s.adapter == nil {
		return nil, fmt.Errorf("bridge: stellar checkpoint before setup")
	}
	pop := s.adapter.Pop
	return &kernel.Snapshot{
		Kind: KindStellar, Model: pop.Time() / s.adapter.MyrPerTime,
		VTime: s.clock.Now(),
		Extra: kernel.Encode(stellarExtra{
			Stars: pop.Stars, TimeMyr: pop.Time(), Supernovae: pop.Supernovae(),
		}),
	}, nil
}

// Restore implements kernel.Checkpointable. Setup must have run (it
// builds the SSE parameterization and unit scales); the population's
// evolving state is replaced wholesale.
func (s *stellarService) Restore(snap *kernel.Snapshot) error {
	if err := snap.CheckKind(KindStellar); err != nil {
		return err
	}
	if s.adapter == nil {
		return fmt.Errorf("bridge: stellar restore before setup")
	}
	var ex stellarExtra
	if err := kernel.Decode(snap.Extra, &ex); err != nil {
		return err
	}
	s.adapter.Pop.Restore(ex.Stars, ex.TimeMyr, ex.Supernovae)
	return nil
}

// gatherState assembles observable columns. Masses come out in N-body
// units (the adapter's conversion); observables keep their physical units
// (RSun, LSun, K, Myr).
func (s *stellarService) gatherState(attrs []string) (kernel.Reply, error) {
	if s.adapter == nil {
		return kernel.Reply{}, fmt.Errorf("bridge: stellar get_state before setup")
	}
	stars := s.adapter.Pop.Stars
	if len(attrs) == 0 {
		attrs = []string{data.AttrMass}
	}
	st := kernel.NewState(len(stars))
	for _, a := range attrs {
		col := make([]float64, len(stars))
		switch a {
		case data.AttrMass:
			for i := range stars {
				col[i] = stars[i].Mass * s.adapter.NBodyPerMSun
			}
		case data.AttrRadius:
			for i := range stars {
				col[i] = stars[i].Radius
			}
		case data.AttrLuminosity:
			for i := range stars {
				col[i] = stars[i].Luminosity
			}
		case data.AttrTemperature:
			for i := range stars {
				col[i] = stars[i].Temperature
			}
		case data.AttrAge:
			for i := range stars {
				col[i] = stars[i].Age
			}
		case data.AttrStellarType:
			for i := range stars {
				col[i] = float64(stars[i].Type)
			}
		default:
			return kernel.Reply{}, fmt.Errorf("bridge: get_state: unknown attribute %q", a)
		}
		st.AddFloat(a, col)
	}
	return kernel.StateReply(st)
}
