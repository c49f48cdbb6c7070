package exp

import (
	"context"
	"fmt"
	"time"

	"jungle/internal/amuse/ic"
	"jungle/internal/core"
)

// E9 measures the elastic-gang layer on the heterogeneous testbed: a K=4
// gravity gang on site-mixed, where one node runs at quarter speed. A gang
// starts on uniform slabs, so its first leg — one integrator step — is the
// static arm: every step waits for the straggler. From the end of that leg
// on the ranks balance themselves, and the rebalanced arm is the virtual
// time per step over `steps` steps after a warm-up, on the slabs they
// settled on. The per-step ratio approaches the ideal 3.25x for a
// 0.25-speed node in a gang of four. nStars scales the workload (tests
// pass small counts).
func E9(nStars, steps int) (string, error) {
	tb, err := core.NewElasticTestbed()
	if err != nil {
		return "", err
	}
	defer tb.Close()
	ctx := context.Background()
	sim := core.NewSimulation(ctx, tb.Daemon, nil)
	defer sim.Stop()

	g, err := sim.NewGravity(ctx,
		core.WorkerSpec{Resource: tb.Mixed, Channel: core.ChannelIbis, Workers: 4},
		core.GravityOptions{Eps: 0.01})
	if err != nil {
		return "", err
	}
	if err := g.SetParticles(ic.Plummer(nStars, 27)); err != nil {
		return "", err
	}
	// First leg: one step on the uniform slabs every gang starts from.
	start := sim.Elapsed()
	target := 1e-6
	if err := g.EvolveTo(ctx, target); err != nil {
		return "", fmt.Errorf("E9 first leg: %w", err)
	}
	first := sim.Elapsed() - start
	// Warm-up legs: the ranks reshard after every evolve whose skew
	// reaches the threshold, until they settle.
	const warmup = 4
	for i := 0; i < warmup; i++ {
		target += 1e-4
		if err := g.EvolveTo(ctx, target); err != nil {
			return "", fmt.Errorf("E9 warm-up: %w", err)
		}
	}
	start = sim.Elapsed()
	for i := 0; i < steps; i++ {
		target += 1e-6
		if err := g.EvolveTo(ctx, target); err != nil {
			return "", fmt.Errorf("E9 settled: %w", err)
		}
	}
	settled := (sim.Elapsed() - start) / time.Duration(steps)

	last, peak, _ := tb.Recorder.GangSkew("gravity/" + tb.Mixed)
	ms := func(d time.Duration) string { return fmt.Sprintf("%.1f", float64(d.Microseconds())/1000) }
	table := Table("E9 elastic gang on site-mixed (one node at 0.25x speed, K=4)",
		[]string{"arm", "virtual ms/step", "skew"}, [][]string{
			{"static slabs (first leg)", ms(first), fmt.Sprintf("%.2f", peak)},
			{"rebalanced (settled)", ms(settled), fmt.Sprintf("%.2f", last)},
		})
	table += fmt.Sprintf("rebalancing speedup: %.2fx\n", float64(first)/float64(settled))
	return table, nil
}
