package main

import (
	"context"
	"fmt"
	"strings"
	"time"

	"jungle/internal/amuse/data"
	"jungle/internal/core"
	"jungle/internal/core/kernel"
	"jungle/internal/exp"
	"jungle/internal/phys/bridge"
	"jungle/internal/trace"
)

// coupledStep is the paper's own measurement (section 6.2): one bridge step
// of the embedded-cluster simulation on the jungle placement. Real physics
// does most of the work and the comms stack little.
var coupledStep = &workload{
	name:  "coupled_step",
	procs: 2, warm: 4, timed: 200, opsPerSample: 1, checkEvery: 50,
	// A step evolves both dynamical models once, evaluates the coupling
	// field for two p-kicks and updates the stars every fourth time.
	physPerOp: map[string]float64{
		"phys.nbody_evolve_us": 1, "phys.sph_evolve_us": 1, "phys.tree_field_us": 2, "phys.stellar_evolve_us": 0.25,
	},
	prepare: func(seed int64, warm int) (func(*spanRec) (instance, error), error) {
		w := exp.DefaultWorkload().Scaled(0.1)
		w.Seed = seed
		stars, gas, err := w.Build()
		if err != nil {
			return nil, err
		}
		// The plain baseline: every model in the coupler's own process on
		// the desktop, no network. The physics is bit-identical across
		// placements, so its digests are what the jungle run must reach.
		ref, err := newCoupledInstance(w, stars, gas, "cpu-only", nil, nil)
		if err != nil {
			return nil, fmt.Errorf("reference run: %w", err)
		}
		defer ref.close(nil)
		// The reference records the star model's digest after the warm-up,
		// where every jungle instance is checked, and after twice that,
		// which the cold instance reaches: 4 and 8 steps (two stellar
		// updates) at full scale.
		want := make(map[int]uint64)
		for _, n := range []int{warm, 2 * warm} {
			for ref.steps < n {
				if err := ref.op(nil, -1, -1); err != nil {
					return nil, fmt.Errorf("reference run: %w", err)
				}
			}
			if want[n], err = ref.digest(); err != nil {
				return nil, fmt.Errorf("reference run: %w", err)
			}
		}
		return func(sp *spanRec) (instance, error) {
			return newCoupledInstance(w, stars, gas, "jungle", want, sp)
		}, nil
	},
}

// coupledInstance is the lab testbed with the four models of the section 6
// simulation started under one placement and assembled into a bridge. It
// mirrors exp's scenario start from public core and bridge calls, because
// the driver needs the bridge's Trace hook and the models' handles.
type coupledInstance struct {
	tb    *core.Testbed
	sim   *core.Simulation
	grav  *core.Gravity
	br    *bridge.Bridge
	want  map[int]uint64 // steps -> reference digest
	steps int

	// The bridge's Trace hook turns its call sequence into phase spans
	// while an op is traced.
	sp          *spanRec
	parent, cur int
	sample      int
}

func newCoupledInstance(w exp.Workload, stars, gas *data.Particles, placement string, want map[int]uint64, sp *spanRec) (*coupledInstance, error) {
	tb, err := newTestbed(core.NewLabTestbed, sp)
	if err != nil {
		return nil, err
	}
	var p exp.Placement
	for _, s := range exp.LabScenarios(tb) {
		if s.Name == placement {
			p = s
		}
	}
	ctx := context.Background()
	in := &coupledInstance{tb: tb, sim: core.NewSimulation(ctx, tb.Daemon, nil), want: want, cur: -1}
	fail := func(what string, err error) (*coupledInstance, error) {
		in.close(nil)
		return nil, fmt.Errorf("%s: %w", what, err)
	}
	id := sp.under("core.worker_start")
	g, err := in.sim.NewGravity(ctx, p.Gravity, core.GravityOptions{Kernel: p.GravityKernel, Eps: 0.01})
	sp.end(id)
	if err != nil {
		return fail("gravity", err)
	}
	if err := g.SetParticles(stars); err != nil {
		return fail("gravity", err)
	}
	id = sp.under("core.worker_start")
	h, err := in.sim.NewHydro(ctx, p.Hydro, core.HydroOptions{SelfGravity: true, EpsGrav: 0.01})
	sp.end(id)
	if err != nil {
		return fail("hydro", err)
	}
	if err := h.SetParticles(gas); err != nil {
		return fail("hydro", err)
	}
	id = sp.under("core.worker_start")
	f, err := in.sim.NewField(ctx, p.Field, core.FieldOptions{Kernel: p.FieldKernel, Eps: w.Eps})
	sp.end(id)
	if err != nil {
		return fail("field", err)
	}
	masses, msunPerNBody := stellarMasses(stars)
	id = sp.under("core.worker_start")
	st, err := in.sim.NewStellar(ctx, p.Stellar, masses, 2.0, 1/msunPerNBody)
	sp.end(id)
	if err != nil {
		return fail("stellar", err)
	}
	in.grav = g
	in.br, err = bridge.New(bridge.Config{
		Stars: g, Gas: h, Coupler: f, Stellar: st,
		DT: w.DT, Eps: w.Eps, StellarEvery: 4, SNEnergy: 0.1, SNRadius: 0.3,
		Trace: in.onBridgeCall,
	})
	if err != nil {
		return fail("bridge", err)
	}
	return in, nil
}

// stellarMasses recovers the stars' masses in MSun as exp does: IMF masses
// are in N-body units, and the smallest star anchors the IMF's 0.3 MSun
// lower bound.
func stellarMasses(stars *data.Particles) (msun []float64, msunPerNBody float64) {
	minMass := stars.Mass[0]
	for _, m := range stars.Mass {
		if m < minMass {
			minMass = m
		}
	}
	msunPerNBody = 0.3 / minMass
	msun = make([]float64, stars.Len())
	for i := range msun {
		msun[i] = stars.Mass[i] * msunPerNBody
	}
	return msun, msunPerNBody
}

// onBridgeCall receives the integrator's call sequence. Each call that
// opens a phase of the step closes the phase before it, so the four phase
// spans tile the step: field (both p-kick field evaluations), kick (both
// model kicks), evolve (the parallel evolve), stellar (the slow-cadence
// update).
func (in *coupledInstance) onBridgeCall(call string) {
	if in.sp == nil {
		return
	}
	var phase string
	switch {
	case strings.HasPrefix(call, "coupler.field gas->stars"):
		phase = "bridge.field_phase"
	case strings.HasPrefix(call, "stars.kick"):
		phase = "bridge.kick_phase"
	case strings.HasPrefix(call, "stars.evolve"):
		phase = "bridge.evolve_phase"
	case strings.HasPrefix(call, "stellar.evolve"):
		phase = "bridge.stellar_phase"
	default:
		return
	}
	in.sp.end(in.cur)
	in.cur = in.sp.begin(phase, in.parent, in.sample)
}

func (in *coupledInstance) op(sp *spanRec, parent, sample int) error {
	in.sp, in.parent, in.sample, in.cur = sp, parent, sample, -1
	err := in.br.Step(context.Background())
	sp.end(in.cur)
	in.steps++
	return err
}

func (in *coupledInstance) digest() (uint64, error) {
	st, err := in.grav.GetState(context.Background(), data.AttrPos, data.AttrVel)
	if err != nil {
		return 0, err
	}
	st.Key = nil
	return kernel.DigestState(st), nil
}

// check compares the star model's phase-space digest with the reference
// run's whenever the instance stands at a step count the reference
// recorded; at other counts there is nothing to compare with.
func (in *coupledInstance) check() error {
	want, ok := in.want[in.steps]
	if !ok {
		return nil
	}
	got, err := in.digest()
	if err != nil {
		return err
	}
	if got != want {
		return fmt.Errorf("star digest %016x after %d steps, cpu-only reference has %016x", got, in.steps, want)
	}
	return nil
}

func (in *coupledInstance) virtual() time.Duration    { return in.sim.Elapsed() }
func (in *coupledInstance) failed() int               { return 0 }
func (in *coupledInstance) recorder() *trace.Recorder { return in.tb.Recorder }

func (in *coupledInstance) layer(int) map[string]float64 {
	ts := in.sim.TransferStats()
	return map[string]float64{"core.transfer_fallbacks": float64(ts.Fallback + ts.StripeFallback)}
}

func (in *coupledInstance) close(sp *spanRec) {
	stopSim(in.sim, sp)
	closeTestbed(in.tb, sp)
}
