package exp

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strings"

	"jungle/internal/amuse/ic"
	"jungle/internal/core"
	"jungle/internal/phys/bridge"
	"jungle/internal/phys/nbody"
	"jungle/internal/phys/sph"
	"jungle/internal/phys/stellar"
	"jungle/internal/phys/tree"
	"jungle/internal/vtime"
)

// E1PaperSeconds are §6.2's reported per-iteration wall times.
var E1PaperSeconds = map[string]float64{
	"cpu-only":   353,
	"local-gpu":  89,
	"remote-gpu": 84,
	"jungle":     62.4,
}

// E1 runs the four lab scenarios of §6.2 and reports virtual seconds per
// iteration next to the paper's numbers. scale trades fidelity for runtime
// (1.0 = the calibrated workload; virtual times scale with the workload, so
// only scale=1 is comparable to the paper's absolute numbers).
func E1(scale float64, iterations int) (string, []RunResult, error) {
	w := DefaultWorkload().Scaled(scale)
	var results []RunResult
	var rows [][]string
	for _, name := range []string{"cpu-only", "local-gpu", "remote-gpu", "jungle"} {
		tb, err := core.NewLabTestbed()
		if err != nil {
			return "", nil, err
		}
		var placement Placement
		for _, p := range LabScenarios(tb) {
			if p.Name == name {
				placement = p
			}
		}
		res, err := RunScenario(context.Background(), tb, w, placement, iterations)
		tb.Close()
		if err != nil {
			return "", nil, fmt.Errorf("E1 %s: %w", name, err)
		}
		results = append(results, res)
		paper := E1PaperSeconds[name]
		measured := res.PerIteration.Seconds()
		rows = append(rows, []string{
			name,
			fmt.Sprintf("%.1f", paper),
			fmt.Sprintf("%.1f", measured),
			fmt.Sprintf("%.2f", measured/paper),
		})
	}
	table := Table("E1 lab conditions (§6.2): seconds per iteration",
		[]string{"scenario", "paper", "measured", "ratio"}, rows)
	return table, results, nil
}

// E2 runs the SC11 worst case (Fig. 9): coupler in Seattle, all models in
// the Netherlands over a transatlantic link. Reported: per-iteration time,
// worker startup time, and the per-iteration penalty vs the same placement
// driven from the desktop testbed.
func E2(scale float64, iterations int) (string, error) {
	w := DefaultWorkload().Scaled(scale)

	labTB, err := core.NewLabTestbed()
	if err != nil {
		return "", err
	}
	labRes, err := RunScenario(context.Background(), labTB, w, LabScenarios(labTB)[3], iterations)
	labTB.Close()
	if err != nil {
		return "", fmt.Errorf("E2 lab reference: %w", err)
	}

	scTB, err := core.NewSC11Testbed()
	if err != nil {
		return "", err
	}
	scRes, err := RunScenario(context.Background(), scTB, w, SC11Placement(scTB), iterations)
	overlay := scTB.Deployment.Overlay().RenderMap()
	scTB.Close()
	if err != nil {
		return "", fmt.Errorf("E2 sc11: %w", err)
	}

	transferMix := func(t core.TransferStats) string {
		return fmt.Sprintf("%d direct / %d hairpin / %d fallback", t.Direct, t.Hairpin, t.Fallback)
	}
	rows := [][]string{
		{"desktop client (Fig.12)", fmt.Sprintf("%.2f", labRes.PerIteration.Seconds()),
			fmt.Sprintf("%.2f", labRes.Setup.Seconds()), transferMix(labRes.Transfers),
			labRes.Calls.String()},
		{"Seattle laptop (Fig.9)", fmt.Sprintf("%.2f", scRes.PerIteration.Seconds()),
			fmt.Sprintf("%.2f", scRes.Setup.Seconds()), transferMix(scRes.Transfers),
			scRes.Calls.String()},
	}
	table := Table("E2 SC11 worst case (Fig. 9): transatlantic coupler",
		[]string{"client", "s/iteration", "setup s", "state transfers", "rpc plane"}, rows)
	penalty := scRes.PerIteration.Seconds() - labRes.PerIteration.Seconds()
	table += fmt.Sprintf("transatlantic penalty: %+.2f s/iteration\n\n%s", penalty, overlay)
	return table, nil
}

// E3 reproduces Fig. 10's overlay view: hub links by type and all-pairs
// client connectivity on the SC11 network, including the firewalled laptop.
func E3() (string, error) {
	tb, err := core.NewSC11Testbed()
	if err != nil {
		return "", err
	}
	defer tb.Close()

	edges := tb.Deployment.Overlay().Edges()
	counts := map[string]int{}
	for _, e := range edges {
		counts[e.Type.String()]++
	}
	var rows [][]string
	for _, t := range []string{"direct", "ssh-tunnel", "one-way"} {
		rows = append(rows, []string{t, fmt.Sprintf("%d", counts[t])})
	}
	table := Table("E3 SmartSockets overlay (Fig. 10): hub link types",
		[]string{"link type", "count"}, rows)
	table += fmt.Sprintf("overlay connected: %v\n\n%s",
		tb.Deployment.Overlay().Connected(), tb.Deployment.Overlay().RenderMap())
	return table, nil
}

// E4 reproduces Fig. 11's data: per-link traffic split by class (IPL blue,
// MPI orange in the GUI) and per-host load character, from one iteration of
// the jungle placement.
func E4(scale float64) (string, error) {
	tb, err := core.NewLabTestbed()
	if err != nil {
		return "", err
	}
	defer tb.Close()
	w := DefaultWorkload().Scaled(scale)
	if _, err := RunScenario(context.Background(), tb, w, LabScenarios(tb)[3], 1); err != nil {
		return "", err
	}

	byClass := tb.Recorder.TotalByClass()
	classes := make([]string, 0, len(byClass))
	for c := range byClass {
		classes = append(classes, c)
	}
	sort.Strings(classes)
	var rows [][]string
	for _, c := range classes {
		rows = append(rows, []string{c, fmt.Sprintf("%d", byClass[c])})
	}
	out := Table("E4 network traffic by class (Fig. 11)", []string{"class", "bytes"}, rows)

	top := tb.Recorder.TrafficTable()
	if len(top) > 12 {
		top = top[:12]
	}
	var linkRows [][]string
	for _, r := range top {
		linkRows = append(linkRows, []string{r.From, r.To, r.Class, fmt.Sprintf("%d", r.Bytes)})
	}
	out += Table("busiest links", []string{"from", "to", "class", "bytes"}, linkRows)

	// Load character: GPU-hosting workers leave the CPU nearly idle (the
	// paper: "the nodes running models that support GPUs have a very low
	// load").
	out += Table("host load character (GPU hosts near-idle CPUs)",
		[]string{"resource", "device", "cpu load"},
		[][]string{
			{"lgm", "tesla c2050 (gpu)", "low"},
			{"das4-tud", "gtx480 (gpu)", "low"},
			{"das4-vu", "8x xeon (cpu)", "high"},
			{"desktop", "core2 (cpu, coupler only)", "low"},
		})
	return out, nil
}

// E5Stage is one Fig. 6 snapshot.
type E5Stage struct {
	Label           string
	Time            float64
	BoundGasFrac    float64
	GasHalfMass     float64
	StarHalfMass    float64
	SupernovaeSoFar int
}

// E5 reproduces the Fig. 6 progression: the embedded cluster evolves, gas
// is heated by supernovae and expelled, the cluster expands. Run in-process
// (it is a physics result, not a deployment result).
func E5(stars, gas int, tEnd float64) (string, []E5Stage, error) {
	starsSet, gasSet, err := ic.EmbeddedCluster(ic.ClusterSpec{
		Stars: stars, Gas: gas, GasFrac: 0.8, Seed: 6,
	})
	if err != nil {
		return "", nil, err
	}
	cpu := &vtime.Device{Name: "cpu", Kind: vtime.CPU, Gflops: 8, Cores: 4}
	grav := nbody.NewSystem(nbody.NewCPUKernel(cpu), 0.01)
	grav.SetParticles(starsSet)
	hydro := sph.New()
	if err := hydro.SetParticles(gasSet); err != nil {
		return "", nil, err
	}
	masses := make([]float64, starsSet.Len())
	for i := range masses {
		masses[i] = starsSet.Mass[i] * 3000 // MSun: guarantees several >8 MSun
	}
	pop, err := stellar.NewPopulation(stellar.New(), masses)
	if err != nil {
		return "", nil, err
	}
	sse, err := bridge.NewSSEAdapter(pop, 8 /* Myr per unit */, 1.0/3000)
	if err != nil {
		return "", nil, err
	}
	br, err := bridge.New(bridge.Config{
		Stars: grav, Gas: hydro, Coupler: tree.NewFi(cpu), Stellar: sse,
		DT: 1.0 / 32, Eps: 0.05, StellarEvery: 2, SNEnergy: 0.4, SNRadius: 0.4,
	})
	if err != nil {
		return "", nil, err
	}

	var frames []string
	snapshot := func(label string) (E5Stage, error) {
		gs := gasSet.Clone()
		if err := hydro.GetParticles(gs); err != nil {
			return E5Stage{}, err
		}
		ss := starsSet.Clone()
		if err := grav.GetParticles(ss); err != nil {
			return E5Stage{}, err
		}
		frames = append(frames, fmt.Sprintf("%s (t=%.2f):\n%s",
			label, br.Time(), RenderProjection(ss, gs, 3, 56, 20)))
		return E5Stage{
			Label: label, Time: br.Time(),
			BoundGasFrac:    gs.BoundMassFraction(0.05),
			GasHalfMass:     gs.HalfMassRadius(),
			StarHalfMass:    ss.HalfMassRadius(),
			SupernovaeSoFar: br.Supernovae(),
		}, nil
	}

	labels := []string{
		"a) initial: stars embedded in gas",
		"b) gas expanding",
		"c) thin shell remains",
		"d) gas removed, cluster expanded",
	}
	var stages []E5Stage
	st, err := snapshot(labels[0])
	if err != nil {
		return "", nil, err
	}
	stages = append(stages, st)
	for k := 1; k < 4; k++ {
		if err := br.EvolveTo(context.Background(), tEnd*float64(k)/3); err != nil {
			return "", nil, err
		}
		st, err := snapshot(labels[k])
		if err != nil {
			return "", nil, err
		}
		stages = append(stages, st)
	}
	var rows [][]string
	for _, s := range stages {
		rows = append(rows, []string{
			s.Label, fmt.Sprintf("%.2f", s.Time),
			fmt.Sprintf("%.2f", s.BoundGasFrac),
			fmt.Sprintf("%.2f", s.GasHalfMass),
			fmt.Sprintf("%.2f", s.StarHalfMass),
			fmt.Sprintf("%d", s.SupernovaeSoFar),
		})
	}
	table := Table("E5 embedded cluster evolution (Fig. 6)",
		[]string{"stage", "t", "bound gas frac", "gas Rh", "star Rh", "SNe"}, rows)
	table += "\n" + strings.Join(frames, "\n")
	return table, stages, nil
}

// E6 records the Fig. 7 calling sequence of one bridge step (with a
// stellar update) and renders it.
func E6() (string, []string, error) {
	starsSet, gasSet, err := ic.EmbeddedCluster(ic.ClusterSpec{Stars: 20, Gas: 60, GasFrac: 0.5, Seed: 3})
	if err != nil {
		return "", nil, err
	}
	cpu := &vtime.Device{Name: "cpu", Kind: vtime.CPU, Gflops: 8, Cores: 4}
	grav := nbody.NewSystem(nbody.NewCPUKernel(cpu), 0.01)
	grav.SetParticles(starsSet)
	hydro := sph.New()
	if err := hydro.SetParticles(gasSet); err != nil {
		return "", nil, err
	}
	masses := make([]float64, starsSet.Len())
	for i := range masses {
		masses[i] = 1
	}
	pop, err := stellar.NewPopulation(stellar.New(), masses)
	if err != nil {
		return "", nil, err
	}
	sse, err := bridge.NewSSEAdapter(pop, 1, 1)
	if err != nil {
		return "", nil, err
	}
	var calls []string
	br, err := bridge.New(bridge.Config{
		Stars: grav, Gas: hydro, Coupler: tree.NewFi(cpu), Stellar: sse,
		DT: 1.0 / 32, Eps: 0.05, StellarEvery: 1,
		Trace: func(c string) { calls = append(calls, c) },
	})
	if err != nil {
		return "", nil, err
	}
	if err := br.Step(context.Background()); err != nil {
		return "", nil, err
	}
	var b strings.Builder
	b.WriteString("== E6 integrator calling sequence (Fig. 7) ==\n")
	for _, c := range calls {
		fmt.Fprintf(&b, "  %s\n", c)
	}
	return b.String(), calls, nil
}

// E8 is the §7 scale-up projection: measure the cpu-only and jungle
// scenarios at increasing workload scales, fit power laws, and extrapolate
// to the paper's planned ×100.
func E8(iterations int) (string, error) {
	scales := []float64{0.05, 0.1, 0.2}
	type point struct{ n, t float64 }
	var desktopPts, junglePts []point
	for _, s := range scales {
		w := DefaultWorkload().Scaled(s)
		tb, err := core.NewLabTestbed()
		if err != nil {
			return "", err
		}
		dRes, err := RunScenario(context.Background(), tb, w, LabScenarios(tb)[0], iterations)
		tb.Close()
		if err != nil {
			return "", fmt.Errorf("E8 desktop @%v: %w", s, err)
		}
		tb2, err := core.NewLabTestbed()
		if err != nil {
			return "", err
		}
		jRes, err := RunScenario(context.Background(), tb2, w, LabScenarios(tb2)[3], iterations)
		tb2.Close()
		if err != nil {
			return "", fmt.Errorf("E8 jungle @%v: %w", s, err)
		}
		n := float64(w.Stars + w.Gas)
		desktopPts = append(desktopPts, point{n, dRes.PerIteration.Seconds()})
		junglePts = append(junglePts, point{n, jRes.PerIteration.Seconds()})
	}
	fit := func(pts []point) (alpha, c float64) {
		// Least squares on log-log.
		var sx, sy, sxx, sxy float64
		for _, p := range pts {
			x, y := math.Log(p.n), math.Log(p.t)
			sx += x
			sy += y
			sxx += x * x
			sxy += x * y
		}
		n := float64(len(pts))
		alpha = (n*sxy - sx*sy) / (n*sxx - sx*sx)
		c = math.Exp((sy - alpha*sx) / n)
		return alpha, c
	}
	da, dc := fit(desktopPts)
	ja, jc := fit(junglePts)
	base := float64(DefaultWorkload().Stars + DefaultWorkload().Gas)
	n100 := base * 100
	dProj := dc * math.Pow(n100, da)
	jProj := jc * math.Pow(n100, ja)
	rows := [][]string{
		{"cpu-only desktop", fmt.Sprintf("%.2f", da), fmt.Sprintf("%.1f", dProj)},
		{"jungle", fmt.Sprintf("%.2f", ja), fmt.Sprintf("%.1f", jProj)},
	}
	table := Table("E8 scale-up projection (§7: 'scale up ... factor 100')",
		[]string{"deployment", "fitted exponent", "projected s/iter at 100x"}, rows)
	table += fmt.Sprintf("projected jungle advantage at 100x: %.1fx\n", dProj/jProj)
	return table, nil
}
