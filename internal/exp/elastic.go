package exp

import (
	"context"
	"fmt"
	"time"

	"jungle/internal/amuse/ic"
	"jungle/internal/core"
)

// E9 measures the elastic-gang layer on the heterogeneous testbed: a K=4
// gravity gang on site-mixed (one node derated to quarter speed) run once
// with static uniform slabs and once with the skew-driven rebalancer
// armed. Reported per arm: virtual time per step over `steps` post-warmup
// steps, plus the telemetry skew gauge. The static arm is gated by the
// straggler every step; the rebalanced arm converges to throughput-
// proportional slabs, so the per-step ratio approaches the ideal 3.25x
// for a 0.25-speed node in a gang of four. nStars scales the workload
// (tests pass small counts).
func E9(nStars, steps int) (string, error) {
	type arm struct {
		name      string
		rebalance bool
		perStep   time.Duration
		skew      float64
	}
	arms := []arm{{name: "static slabs"}, {name: "rebalanced", rebalance: true}}
	for i := range arms {
		perStep, skew, err := elasticArm(nStars, steps, arms[i].rebalance)
		if err != nil {
			return "", fmt.Errorf("E9 %s: %w", arms[i].name, err)
		}
		arms[i].perStep, arms[i].skew = perStep, skew
	}
	rows := make([][]string, len(arms))
	for i, a := range arms {
		rows[i] = []string{a.name,
			fmt.Sprintf("%.1f", float64(a.perStep.Microseconds())/1000),
			fmt.Sprintf("%.2f", a.skew)}
	}
	table := Table("E9 elastic gang on site-mixed (one node at 0.25x speed, K=4)",
		[]string{"arm", "virtual ms/step", "final skew"}, rows)
	table += fmt.Sprintf("rebalancing speedup: %.2fx\n",
		float64(arms[0].perStep)/float64(arms[1].perStep))
	return table, nil
}

// elasticArm runs one E9 arm and returns the post-warmup virtual time per
// step and the gang's final observed skew (1.0 for the static arm, which
// records no samples).
func elasticArm(nStars, steps int, rebalance bool) (time.Duration, float64, error) {
	tb, err := core.NewElasticTestbed()
	if err != nil {
		return 0, 0, err
	}
	defer tb.Close()
	ctx := context.Background()
	sim := core.NewSimulation(ctx, tb.Daemon, nil)
	defer sim.Stop()

	g, err := sim.NewGravity(ctx,
		core.WorkerSpec{Resource: tb.Mixed, Channel: core.ChannelIbis, Workers: 4},
		core.GravityOptions{Eps: 0.01})
	if err != nil {
		return 0, 0, err
	}
	if rebalance {
		if err := g.EnableRebalance(); err != nil {
			return 0, 0, err
		}
	}
	if err := g.SetParticles(ic.Plummer(nStars, 27)); err != nil {
		return 0, 0, err
	}

	// Warm-up legs give the rebalancer measurement rounds to converge.
	const warmup = 4
	target := 0.0
	for i := 0; i < warmup; i++ {
		target += 1e-4
		if err := g.EvolveTo(ctx, target); err != nil {
			return 0, 0, err
		}
		if rebalance {
			wctx, cancel := context.WithTimeout(ctx, 20*time.Second)
			err := g.WaitRebalanceRounds(wctx, uint64(i+1))
			cancel()
			if err != nil {
				return 0, 0, err
			}
		}
	}

	start := sim.Elapsed()
	for i := 0; i < steps; i++ {
		target += 1e-6
		if err := g.EvolveTo(ctx, target); err != nil {
			return 0, 0, err
		}
	}
	perStep := (sim.Elapsed() - start) / time.Duration(steps)

	skew := 1.0
	if last, _, ok := tb.Recorder.GangSkew("gravity/" + tb.Mixed); ok {
		skew = last
	}
	return perStep, skew, nil
}
