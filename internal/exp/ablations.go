package exp

import (
	"context"
	"fmt"
	"math"
	"time"

	"jungle/internal/amuse/ic"
	"jungle/internal/core"
	"jungle/internal/phys/bridge"
	"jungle/internal/phys/nbody"
	"jungle/internal/phys/sph"
	"jungle/internal/phys/tree"
	"jungle/internal/vtime"
)

// Ablation studies for the design choices DESIGN.md calls out: the tree
// opening angle (accuracy vs cost of the coupling kernel), the bridge
// coupling interval (energy error vs coupling overhead), and the channel
// stack (what each Fig. 5 hop costs).

// ThetaRow is one opening-angle measurement.
type ThetaRow struct {
	Theta    float64
	MaxError float64 // max relative acceleration error vs direct summation
	Flops    float64
}

// AblateTheta sweeps the Barnes–Hut opening angle on the coupling
// workload: gas sources, star targets.
func AblateTheta(nSrc, nTargets int) (string, []ThetaRow, error) {
	src := ic.Plummer(nSrc, 17)
	targets := ic.Plummer(nTargets, 18).Pos
	cpu := &vtime.Device{Name: "cpu", Kind: vtime.CPU, Gflops: 8, Cores: 4}

	// Direct-summation reference.
	ref := tree.NewFi(cpu)
	ref.Theta = 0
	refAcc, _, _ := ref.FieldAt(context.Background(), src.Mass, src.Pos, targets, 0.05)

	var rows []ThetaRow
	var tableRows [][]string
	for _, theta := range []float64{0.2, 0.4, 0.6, 0.8, 1.0} {
		k := tree.NewFi(cpu)
		k.Theta = theta
		acc, _, flops := k.FieldAt(context.Background(), src.Mass, src.Pos, targets, 0.05)
		var maxErr float64
		for i := range acc {
			if n := refAcc[i].Norm(); n > 0 {
				if e := acc[i].Sub(refAcc[i]).Norm() / n; e > maxErr {
					maxErr = e
				}
			}
		}
		rows = append(rows, ThetaRow{Theta: theta, MaxError: maxErr, Flops: flops})
		tableRows = append(tableRows, []string{
			fmt.Sprintf("%.1f", theta),
			fmt.Sprintf("%.2e", maxErr),
			fmt.Sprintf("%.2e", flops),
		})
	}
	table := Table("ablation: tree opening angle (coupling accuracy vs cost)",
		[]string{"theta", "max rel err", "flops"}, tableRows)
	return table, rows, nil
}

// DTRow is one coupling-interval measurement.
type DTRow struct {
	DT          float64
	EnergyError float64
	FieldCalls  int
}

// AblateBridgeDT sweeps the bridge step: larger coupling intervals mean
// fewer (expensive, possibly remote) coupling calls but worse energy
// conservation — the central trade-off of operator-split coupling.
func AblateBridgeDT(nStars, nGas int, tEnd float64) (string, []DTRow, error) {
	stars, gas, err := ic.EmbeddedCluster(ic.ClusterSpec{
		Stars: nStars, Gas: nGas, GasFrac: 0.5, Seed: 19,
	})
	if err != nil {
		return "", nil, err
	}
	cpu := &vtime.Device{Name: "cpu", Kind: vtime.CPU, Gflops: 8, Cores: 4}

	var rows []DTRow
	var tableRows [][]string
	for _, dt := range []float64{1.0 / 128, 1.0 / 64, 1.0 / 32, 1.0 / 16, 1.0 / 8} {
		grav := nbody.NewSystem(nbody.NewCPUKernel(cpu), 0.01)
		grav.SetParticles(stars.Clone())
		hydro := sph.New()
		if err := hydro.SetParticles(gas.Clone()); err != nil {
			return "", nil, err
		}
		calls := 0
		br, err := bridge.New(bridge.Config{
			Stars: grav, Gas: hydro, Coupler: tree.NewFi(cpu),
			DT: dt, Eps: 0.05,
			Trace: func(c string) {
				if len(c) > 7 && c[:7] == "coupler" {
					calls++
				}
			},
		})
		if err != nil {
			return "", nil, err
		}
		total := func() float64 {
			ks, us := grav.Energy()
			kg, tg, ug := hydro.Energy()
			return ks + us + kg + tg + ug + br.CrossPotential(context.Background())
		}
		e0 := total()
		if err := br.EvolveTo(context.Background(), tEnd); err != nil {
			return "", nil, err
		}
		e1 := total()
		rel := math.Abs((e1 - e0) / e0)
		rows = append(rows, DTRow{DT: dt, EnergyError: rel, FieldCalls: calls})
		tableRows = append(tableRows, []string{
			fmt.Sprintf("1/%d", int(1/dt)),
			fmt.Sprintf("%.2e", rel),
			fmt.Sprintf("%d", calls),
		})
	}
	table := Table("ablation: bridge coupling interval (energy error vs coupling calls)",
		[]string{"DT", "|dE/E|", "field calls"}, tableRows)
	return table, rows, nil
}

// ChannelRow is one channel-stack measurement.
type ChannelRow struct {
	Channel string
	PerCall time.Duration
}

// AblateChannels measures one small RPC (a one-column get_state of a
// 64-star worker) through each channel — what each hop of Fig. 5 costs in
// virtual time: mpi (in-process), sockets (local process, loopback), ibis
// to a same-site cluster, ibis to the remote LGM.
func AblateChannels() (string, []ChannelRow, error) {
	tb, err := core.NewLabTestbed()
	if err != nil {
		return "", nil, err
	}
	defer tb.Close()
	stars := ic.Plummer(64, 23)

	cases := []struct {
		name string
		spec core.WorkerSpec
	}{
		{"mpi (in-process)", core.WorkerSpec{Resource: "desktop", Channel: core.ChannelMPI}},
		{"sockets (local process)", core.WorkerSpec{Resource: "desktop", Channel: core.ChannelSockets}},
		{"ibis -> das4-vu (same site)", core.WorkerSpec{Resource: "das4-vu", Channel: core.ChannelIbis}},
		{"ibis -> lgm (remote site)", core.WorkerSpec{Resource: "lgm", Channel: core.ChannelIbis}},
	}
	var rows []ChannelRow
	var tableRows [][]string
	for _, c := range cases {
		sim := core.NewSimulation(context.Background(), tb.Daemon, nil)
		g, err := sim.NewGravity(context.Background(), c.spec, core.GravityOptions{Eps: 0.01})
		if err != nil {
			sim.Stop()
			return "", nil, fmt.Errorf("%s: %w", c.name, err)
		}
		if err := g.SetParticles(stars); err != nil {
			sim.Stop()
			return "", nil, err
		}
		const calls = 32
		start := sim.Elapsed()
		for i := 0; i < calls; i++ {
			if g.Masses() == nil {
				sim.Stop()
				return "", nil, fmt.Errorf("%s: %v", c.name, g.Err())
			}
		}
		per := (sim.Elapsed() - start) / calls
		sim.Stop()
		rows = append(rows, ChannelRow{Channel: c.name, PerCall: per})
		tableRows = append(tableRows, []string{c.name, per.String()})
	}
	table := Table("ablation: channel stack (virtual time per small RPC)",
		[]string{"channel", "per call"}, tableRows)
	return table, rows, nil
}
