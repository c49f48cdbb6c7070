// Elastic gang: a K=4 gravity gang lands on a cluster where one node
// runs at quarter speed, so uniform slabs leave three ranks idling while
// the straggler finishes — the classic skew tax of gang scheduling on
// shared hardware. With rebalancing enabled the coupler samples per-rank
// compute time after each evolve, reshards the slab boundaries toward
// throughput-proportional widths (state never moves: every rank holds the
// full replicated arrays, so results stay bit-identical), and the skew
// gauge converges to ~1. The program then migrates the whole gang onto a
// clean uniform cluster mid-run via checkpoint/restore and shrinks it to
// K=2, showing the same handle surviving both moves.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"jungle/internal/amuse/ic"
	"jungle/internal/core"

	// Link the standard kernel kinds into the binary.
	_ "jungle/internal/kernels"
)

func main() {
	// site-mixed has four nodes, one derated to 0.25x; site-spare is
	// uniform. Both are reachable from the desktop over metro links.
	tb, err := core.NewElasticTestbed()
	if err != nil {
		log.Fatalf("testbed: %v", err)
	}
	defer tb.Close()

	ctx := context.Background()
	sim := core.NewSimulation(ctx, tb.Daemon, nil)
	defer sim.Stop()
	sim.Monitor = tb.Recorder // feed the gang skew gauge

	grav, err := sim.NewGravity(ctx,
		core.WorkerSpec{Resource: tb.Mixed, Channel: core.ChannelIbis, Workers: 4},
		core.GravityOptions{Eps: 0.01},
	)
	if err != nil {
		log.Fatalf("gang: %v", err)
	}
	if err := grav.EnableRebalance(); err != nil {
		log.Fatalf("enable rebalance: %v", err)
	}
	if err := grav.SetParticles(ic.Plummer(512, 7)); err != nil {
		log.Fatalf("set particles: %v", err)
	}

	// Evolve in legs; after each one the rebalancer runs a measurement
	// round, sees the straggler's 4x compute time, and reshards.
	for i := 1; i <= 4; i++ {
		if err := grav.EvolveTo(ctx, float64(i)/256); err != nil {
			log.Fatalf("evolve: %v", err)
		}
		waitRounds(grav, uint64(i))
	}

	label := "gravity/" + tb.Mixed
	last, max, _ := tb.Recorder.GangSkew(label)
	fmt.Printf("skew on %s: peak %.2f, now %.2f (trigger 1.15)\n", tb.Mixed, max, last)
	fmt.Print(tb.Recorder.RenderGangs())

	// The spare cluster frees up: move the whole gang there live. The
	// coupler checkpoints the kernel, restarts the ranks on site-spare,
	// restores, and replays the channel wiring — the handle stays valid.
	if err := grav.Migrate(ctx, tb.Spare); err != nil {
		log.Fatalf("migrate: %v", err)
	}
	fmt.Printf("migrated gang to %s\n", tb.Spare)

	// Uniform nodes need fewer ranks for the same turnaround: shrink K.
	if err := grav.Resize(ctx, 2); err != nil {
		log.Fatalf("resize: %v", err)
	}
	if err := grav.EvolveTo(ctx, 5.0/256); err != nil {
		log.Fatalf("evolve after resize: %v", err)
	}

	k, u, err := grav.Energy(ctx)
	if err != nil {
		log.Fatalf("energy: %v", err)
	}
	fmt.Printf("finished on %d ranks at t=%.4f, E=%.6f\n",
		len(grav.GangWorkers()), 5.0/256, k+u)
}

// waitRounds blocks until the rebalancer has finished at least `want`
// asynchronous measurement rounds.
func waitRounds(g *core.Gravity, want uint64) {
	deadline := time.Now().Add(20 * time.Second)
	for g.RebalanceRounds() < want {
		if time.Now().After(deadline) {
			log.Fatalf("rebalancer stuck at %d rounds", g.RebalanceRounds())
		}
		time.Sleep(2 * time.Millisecond)
	}
}
