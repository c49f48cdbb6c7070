package core_test

// Runnable godoc examples for the public coupler surface. `go test`
// executes these (the Output comments are asserted), so the documented
// idioms — pipelined async calls, orchestrated state transfer with its
// fallback, and sharded multi-worker kernels — are exercised on every CI
// run against a real testbed, daemon and worker stack.

import (
	"context"
	"fmt"

	"jungle/internal/amuse/data"
	"jungle/internal/amuse/ic"
	"jungle/internal/core"

	// Examples start workers of the standard kinds; the adapter packages
	// must be linked in (the database/sql-driver pattern).
	"jungle/internal/core/kernel"
	_ "jungle/internal/kernels"
)

// Example_pipelinedCalls shows the asynchronous coupler API: issue calls
// to several remote models back to back (each request is on its
// wide-area link before Go returns), then Gather the futures — K slow
// links cost about one round trip, not K.
func Example_pipelinedCalls() {
	tb, err := core.NewLabTestbed()
	if err != nil {
		fmt.Println(err)
		return
	}
	defer tb.Close()
	sim := core.NewSimulation(context.Background(), tb.Daemon, nil)
	defer sim.Stop()

	// Two gravity models on two different sites.
	var models []*core.Gravity
	sets := make([]*data.Particles, 2)
	for i, resource := range []string{tb.LGM, tb.UvA} {
		g, err := sim.NewGravity(context.Background(),
			core.WorkerSpec{Resource: resource, Channel: core.ChannelIbis},
			core.GravityOptions{Eps: 0.01})
		if err != nil {
			fmt.Println(err)
			return
		}
		sets[i] = ic.Plummer(16, int64(i+1))
		if err := g.SetParticles(sets[i]); err != nil {
			fmt.Println(err)
			return
		}
		models = append(models, g)
	}

	// Phase 1: both kicks leave for their links before either is waited
	// on. Phase 2: both pulls, the same way. Each phase costs roughly the
	// slowest single link's round trip.
	dv := make([]data.Vec3, 16)
	kicks := []core.Waiter{models[0].GoKick(dv), models[1].GoKick(dv)}
	if err := core.Gather(context.Background(), kicks...); err != nil {
		fmt.Println(err)
		return
	}
	pulls := []core.Waiter{models[0].GoPull(sets[0]), models[1].GoPull(sets[1])}
	if err := core.Gather(context.Background(), pulls...); err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("pipelined kick+pull against %d sites: %d particles each\n", len(models), sets[0].Len())
	// Output: pipelined kick+pull against 2 sites: 16 particles each
}

// Example_transferState moves state between workers without the columns
// ever visiting the coupler's machine — and shows the automatic hairpin
// fallback when a worker has no peer plane (here: an in-process "mpi"
// channel worker). TransferState is always safe to call; TransferStats
// reports which path each transfer took.
func Example_transferState() {
	tb, err := core.NewDSLTestbed()
	if err != nil {
		fmt.Println(err)
		return
	}
	defer tb.Close()
	sim := core.NewSimulation(context.Background(), tb.Daemon, nil)
	defer sim.Stop()

	newWorker := func(resource, channel string) *core.Gravity {
		g, err := sim.NewGravity(context.Background(),
			core.WorkerSpec{Resource: resource, Channel: channel},
			core.GravityOptions{Eps: 0.01})
		if err != nil {
			fmt.Println(err)
			return nil
		}
		if err := g.SetParticles(ic.Plummer(100, 7)); err != nil {
			fmt.Println(err)
			return nil
		}
		return g
	}
	siteA := newWorker(tb.SiteA, core.ChannelIbis)
	siteB := newWorker(tb.SiteB, core.ChannelIbis)
	local := newWorker("home", core.ChannelMPI)
	if siteA == nil || siteB == nil || local == nil {
		return
	}

	// Both ends remote with peer planes: the columns stream site-a ->
	// site-b over the fast inter-site link.
	if err := sim.TransferState(nil, siteA, siteB); err != nil {
		fmt.Println(err)
		return
	}
	// The local mpi-channel worker has no peer plane: same call, carried
	// by the coupler hairpin instead.
	if err := sim.TransferState(nil, siteB, local); err != nil {
		fmt.Println(err)
		return
	}
	stats := sim.TransferStats()
	fmt.Printf("direct=%d hairpin=%d fallback=%d\n", stats.Direct, stats.Hairpin, stats.Fallback)
	// Output: direct=1 hairpin=1 fallback=0
}

// Example_shardedGang deploys one gravity kernel as a gang of three rank
// workers (WorkerSpec.Workers): the ranks are co-located on one site,
// split every force evaluation into slabs, and exchange halos over their
// own peer links — behind an unchanged Gravity handle. Energies reduce
// across the ranks.
func Example_shardedGang() {
	tb, err := core.NewDSLTestbed()
	if err != nil {
		fmt.Println(err)
		return
	}
	defer tb.Close()
	sim := core.NewSimulation(context.Background(), tb.Daemon, nil)
	defer sim.Stop()

	g, err := sim.NewGravity(context.Background(),
		core.WorkerSpec{Resource: tb.SiteA, Channel: core.ChannelIbis, Workers: 3},
		core.GravityOptions{Eps: 0.01})
	if err != nil {
		fmt.Println(err)
		return
	}
	if err := g.SetParticles(ic.Plummer(96, 13)); err != nil {
		fmt.Println(err)
		return
	}
	if err := g.EvolveTo(context.Background(), 1.0/64); err != nil {
		fmt.Println(err)
		return
	}
	kin, pot, err := g.Energy(nil)
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("ranks=%d bound=%v\n", len(g.GangWorkers()), kin+pot < 0)
	// Output: ranks=3 bound=true
}

// Example_checkpointResume checkpoints a running simulation to a manifest
// file, stops the session, and resumes it — the pattern behind
// amuse-run's -checkpoint/-resume flags and behind stateful worker
// replacement. The snapshot call rides the worker's FIFO (so in-flight
// pipelines drain first) and the blob streams worker-to-daemon over the
// peer plane; the resumed model continues bit-identically from the
// checkpointed state.
func Example_checkpointResume() {
	tb, err := core.NewLabTestbed()
	if err != nil {
		fmt.Println(err)
		return
	}
	defer tb.Close()
	sim := core.NewSimulation(context.Background(), tb.Daemon, nil)
	defer sim.Stop()

	g, err := sim.NewGravity(context.Background(),
		core.WorkerSpec{Resource: tb.LGM, Channel: core.ChannelIbis},
		core.GravityOptions{Kernel: "phigrape-gpu", Eps: 0.01})
	if err != nil {
		fmt.Println(err)
		return
	}
	if err := g.SetParticles(ic.Plummer(64, 5)); err != nil {
		fmt.Println(err)
		return
	}
	if err := g.EvolveTo(context.Background(), 1.0/64); err != nil {
		fmt.Println(err)
		return
	}

	// Snapshot every model and persist the manifest: kinds, worker specs
	// (gang shapes included), setup payloads and the snapshot blobs.
	man, err := sim.Checkpoint(context.Background())
	if err != nil {
		fmt.Println(err)
		return
	}
	enc := kernel.Encode(man) // what a checkpoint file or a session snapshot holds
	sim.Stop()                // the original session is gone; only the encoded manifest survives

	loaded := new(core.Manifest)
	if err := kernel.Decode(enc, loaded); err != nil {
		fmt.Println(err)
		return
	}
	sim2, models, err := core.ResumeSimulation(context.Background(), tb.Daemon, nil, loaded, "")
	if err != nil {
		fmt.Println(err)
		return
	}
	defer sim2.Stop()
	g2 := models[0].AsGravity()
	if err := g2.EvolveTo(context.Background(), 1.0/32); err != nil {
		fmt.Println(err)
		return
	}
	kin, pot, err := g2.Energy(nil)
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("resumed models=%d kind=%s n=%d bound=%v\n",
		len(models), models[0].Kind(), g2.N(), kin+pot < 0)
	// Output: resumed models=1 kind=gravity n=64 bound=true
}
