package exp

import (
	"context"
	"fmt"
	"math"
	"time"

	"jungle/internal/core"
	"jungle/internal/ensemble"
	"jungle/internal/phys/abm"
	"jungle/internal/phys/analytic"
	"jungle/internal/sched"
)

// E10 is the ensemble evaluation: a parameter sweep of agent-based
// colonies fanned through the multi-tenant control plane (§6-style
// many-small-jobs use of a jungle, where one scientist's campaign is N
// independent simulations rather than one big one), followed by the
// coupled reaction–diffusion-in-a-potential demo — an abm colony whose
// potential column is sampled each round from a live analytic field
// worker, the agent-based analogue of the paper's coupled-kernel bridge.
func E10(members, steps int) (string, error) {
	sweep, err := e10Sweep(members, steps)
	if err != nil {
		return "", err
	}
	demo, err := e10Coupled(steps)
	if err != nil {
		return "", err
	}
	return sweep + demo, nil
}

// e10Plan builds the members-sized campaign: 4 initial-condition streams
// crossed with members/4 couplings (members must divide by 4).
func e10Plan(members int) (*ensemble.ABMSweep, error) {
	const nIC = 4
	if members < nIC || members%nIC != 0 {
		return nil, fmt.Errorf("E10: members %d must be a positive multiple of %d", members, nIC)
	}
	ics := make([]float64, nIC)
	for i := range ics {
		ics[i] = float64(i)
	}
	bs := make([]float64, members/nIC)
	for i := range bs {
		bs[i] = 0.05 + 0.02*float64(i)
	}
	return &ensemble.ABMSweep{
		Plan: &ensemble.Plan{
			Name:     "e10",
			BaseSeed: 1012,
			Axes: []ensemble.Axis{
				{Name: ensemble.AxisIC, Values: ics},
				{Name: ensemble.AxisB, Values: bs},
			},
			SetupAxes: []string{ensemble.AxisIC},
		},
		Base:  abm.Params{W: 24, H: 24, D: 0.15, R: 0.6, B: 0.2, DT: 0.01},
		Steps: 24,
		Spec:  core.WorkerSpec{Channel: core.ChannelIbis},
	}, nil
}

// e10Sweep runs the campaign twice — strictly sequential, then fanned
// through scheduler admission — and holds the two arms to bit-equal
// per-member digests while comparing their virtual makespans.
func e10Sweep(members, steps int) (string, error) {
	type arm struct {
		name       string
		sequential bool
		maxLive    int
		rep        *ensemble.Report
	}
	arms := []arm{
		{name: "sequential", sequential: true, maxLive: 1},
		{name: "scheduler fan-out", maxLive: 8},
	}
	for i := range arms {
		sweep, err := e10Plan(members)
		if err != nil {
			return "", err
		}
		if steps > 0 {
			sweep.Steps = steps
		}
		sweep.Sequential = arms[i].sequential
		tb, err := core.NewLabTestbed()
		if err != nil {
			return "", err
		}
		s := sched.New(tb.Daemon, sched.Config{
			MaxLive: arms[i].maxLive, QueueCap: members,
			RetryAfter: 2 * time.Millisecond, Recorder: tb.Recorder,
		})
		rep, err := sweep.Run(context.Background(), s)
		s.Shutdown()
		tb.Close()
		if err != nil {
			return "", fmt.Errorf("E10 %s: %w", arms[i].name, err)
		}
		if rep.Failures != 0 {
			return "", fmt.Errorf("E10 %s: %d members failed", arms[i].name, rep.Failures)
		}
		arms[i].rep = rep
	}
	seq, fan := arms[0].rep, arms[1].rep
	for i, d := range seq.Digests() {
		if fan.Digests()[i] != d {
			return "", fmt.Errorf("E10: member %d digest differs between arms (%016x vs %016x)",
				i, d, fan.Digests()[i])
		}
	}
	var rows [][]string
	for _, a := range arms {
		r := a.rep
		rows = append(rows, []string{
			a.name, fmt.Sprintf("%d", r.Slots),
			fmt.Sprintf("%.1f", float64(r.Makespan.Microseconds())/1000),
			fmt.Sprintf("%.1f", float64(r.SumVirtual.Microseconds())/1000),
			fmt.Sprintf("%d", r.StagedSetups),
			fmt.Sprintf("%d", r.Retries),
		})
	}
	table := Table(fmt.Sprintf("E10 ensemble sweep: %d abm members through the control plane", members),
		[]string{"arm", "slots", "virtual makespan ms", "sequential bound ms", "staged setups", "retries"}, rows)
	table += fmt.Sprintf("fan-out speedup %.2fx, per-member digests bit-equal across arms\n%s",
		float64(seq.Makespan)/float64(fan.Makespan), fan.Render())
	return table, nil
}

// e10Coupled runs two colonies from the same initial condition — one
// coupled each round to a live analytic Plummer field worker, one left
// uncoupled — and tabulates how the external potential reshapes the
// colony's total population.
func e10Coupled(steps int) (string, error) {
	if steps <= 0 {
		steps = 24
	}
	tb, err := core.NewLabTestbed()
	if err != nil {
		return "", err
	}
	defer tb.Close()
	ctx := context.Background()
	sim := core.NewSimulation(ctx, tb.Daemon, nil)
	defer sim.Stop()

	p := abm.Params{W: 24, H: 24, D: 0.15, R: 0.6, B: 0.35, DT: 0.01}
	spec := core.WorkerSpec{Channel: core.ChannelIbis}
	newColony := func() (*abm.Remote, error) {
		m, err := sim.NewModel(ctx, core.Kind(abm.Kind), spec,
			abm.SetupArgs{W: p.W, H: p.H, D: p.D, R: p.R, B: p.B, DT: p.DT})
		if err != nil {
			return nil, err
		}
		r := abm.NewRemote(m, p)
		return r, r.SeedState(ctx, 1012)
	}
	coupled, err := newColony()
	if err != nil {
		return "", fmt.Errorf("E10 coupled colony: %w", err)
	}
	control, err := newColony()
	if err != nil {
		return "", fmt.Errorf("E10 control colony: %w", err)
	}
	fieldModel, err := sim.NewModel(ctx, core.Kind(analytic.Kind), spec,
		analytic.SetupArgs{M: 1.5, A: 0.4})
	if err != nil {
		return "", fmt.Errorf("E10 field worker: %w", err)
	}
	field := analytic.NewRemote(fieldModel)

	const rounds = 4
	per := steps / rounds
	if per < 1 {
		per = 1
	}
	rows := [][]string{}
	var lastCoupled, lastControl float64
	for r := 0; r < rounds; r++ {
		// One coupling round: resample the potential at every agent from
		// the live field worker, then advance both colonies in lockstep.
		if err := coupled.CouplePotential(ctx, field); err != nil {
			return "", fmt.Errorf("E10 couple round %d: %w", r, err)
		}
		if err := coupled.Step(ctx, per); err != nil {
			return "", err
		}
		if err := control.Step(ctx, per); err != nil {
			return "", err
		}
		cs, err := coupled.Stats(ctx)
		if err != nil {
			return "", err
		}
		us, err := control.Stats(ctx)
		if err != nil {
			return "", err
		}
		lastCoupled, lastControl = cs.Flops, us.Flops
		rows = append(rows, []string{
			fmt.Sprintf("%d", r+1), fmt.Sprintf("%.2f", cs.Time),
			fmt.Sprintf("%.1f", cs.Flops), fmt.Sprintf("%.1f", us.Flops),
			fmt.Sprintf("%+.1f", cs.Flops-us.Flops),
		})
	}
	table := Table("E10 coupled demo: colony in a live Plummer potential vs uncoupled control",
		[]string{"round", "t", "coupled mass", "control mass", "field effect"}, rows)

	// The coupling is the only difference between the twins, so the final
	// populations must genuinely diverge — a limp coupling is a bug.
	if math.Abs(lastCoupled-lastControl) < 1e-6 {
		return "", fmt.Errorf("E10: coupled and control colonies did not diverge (%v vs %v)",
			lastCoupled, lastControl)
	}
	table += fmt.Sprintf("virtual time for the coupled run: %v\n", sim.Elapsed().Round(time.Millisecond))
	return table, nil
}
