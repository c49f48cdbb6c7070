package jungle

// One benchmark per table/figure of the paper's evaluation (§6), plus
// micro-benchmarks of the substrates. The headline experiment benchmarks
// report *virtual* seconds per iteration via b.ReportMetric (the paper's
// metric); wall-clock ns/op measures the reproduction itself.
//
// The full calibrated workload (scale 1) runs real physics for ~10 s per
// scenario; benchmarks default to a reduced scale and the jungle-bench
// command covers scale 1.

import (
	"context"
	"fmt"
	"testing"
	"time"

	"jungle/internal/amuse/data"
	"jungle/internal/amuse/ic"
	"jungle/internal/core"
	"jungle/internal/core/kernel"
	"jungle/internal/ensemble"
	"jungle/internal/exp"
	"jungle/internal/mpisim"
	"jungle/internal/phys/abm"
	"jungle/internal/phys/nbody"
	"jungle/internal/phys/sph"
	"jungle/internal/phys/tree"
	"jungle/internal/sched"
	"jungle/internal/vnet"
	"jungle/internal/vtime"
)

const benchScale = 0.1 // workload fraction for the scenario benchmarks

// BenchmarkE1LabConditions regenerates the §6.2 table: one sub-benchmark
// per scenario, virtual seconds per iteration as the reported metric.
func BenchmarkE1LabConditions(b *testing.B) {
	w := exp.DefaultWorkload().Scaled(benchScale)
	names := []string{"cpu-only", "local-gpu", "remote-gpu", "jungle"}
	for _, name := range names {
		b.Run(name, func(b *testing.B) {
			var virtual float64
			for i := 0; i < b.N; i++ {
				tb, err := core.NewLabTestbed()
				if err != nil {
					b.Fatal(err)
				}
				var placement exp.Placement
				for _, p := range exp.LabScenarios(tb) {
					if p.Name == name {
						placement = p
					}
				}
				res, err := exp.RunScenario(context.Background(), tb, w, placement, 1)
				tb.Close()
				if err != nil {
					b.Fatal(err)
				}
				virtual = res.PerIteration.Seconds()
			}
			b.ReportMetric(virtual, "virtual-s/iter")
			b.ReportMetric(exp.E1PaperSeconds[name], "paper-s/iter")
		})
	}
}

// BenchmarkE2SC11 regenerates the Fig. 9 worst case: the transatlantic
// coupler.
func BenchmarkE2SC11(b *testing.B) {
	w := exp.DefaultWorkload().Scaled(benchScale)
	var virtual float64
	for i := 0; i < b.N; i++ {
		tb, err := core.NewSC11Testbed()
		if err != nil {
			b.Fatal(err)
		}
		res, err := exp.RunScenario(context.Background(), tb, w, exp.SC11Placement(tb), 1)
		tb.Close()
		if err != nil {
			b.Fatal(err)
		}
		virtual = res.PerIteration.Seconds()
	}
	b.ReportMetric(virtual, "virtual-s/iter")
}

// BenchmarkE3Overlay measures SmartSockets overlay construction on the
// SC11 network (Fig. 10): hubs, tunnels, gossip convergence.
func BenchmarkE3Overlay(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tb, err := core.NewSC11Testbed()
		if err != nil {
			b.Fatal(err)
		}
		if !tb.Deployment.Overlay().Connected() {
			b.Fatal("overlay not connected")
		}
		tb.Close()
	}
}

// BenchmarkE5Evolution regenerates the Fig. 6 physics: embedded cluster
// with supernova-driven gas expulsion.
func BenchmarkE5Evolution(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, stages, err := exp.E5(40, 400, 1.0)
		if err != nil {
			b.Fatal(err)
		}
		if len(stages) != 4 {
			b.Fatal("missing stages")
		}
	}
}

// BenchmarkE7Loopback measures the real-TCP loopback channel of §5 (the
// paper: ">8 Gbit/s ... extremely small latency").
func BenchmarkE7Loopback(b *testing.B) {
	var last exp.E7Result
	for i := 0; i < b.N; i++ {
		res, err := exp.RunE7(64<<20, 1<<20, 100)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.ReportMetric(last.ThroughputGbit, "Gbit/s")
	b.ReportMetric(float64(last.RTT.Nanoseconds()), "rtt-ns")
}

// BenchmarkE8ScaleUp measures the workload at growing scales (the §7
// scale-up direction) on the jungle placement.
func BenchmarkE8ScaleUp(b *testing.B) {
	for _, scale := range []float64{0.05, 0.1, 0.2} {
		b.Run(fmt.Sprintf("scale-%g", scale), func(b *testing.B) {
			w := exp.DefaultWorkload().Scaled(scale)
			var virtual float64
			for i := 0; i < b.N; i++ {
				tb, err := core.NewLabTestbed()
				if err != nil {
					b.Fatal(err)
				}
				res, err := exp.RunScenario(context.Background(), tb, w, exp.LabScenarios(tb)[3], 1)
				tb.Close()
				if err != nil {
					b.Fatal(err)
				}
				virtual = res.PerIteration.Seconds()
			}
			b.ReportMetric(virtual, "virtual-s/iter")
		})
	}
}

// --- substrate micro-benchmarks ---

func cpuDev() *vtime.Device {
	return &vtime.Device{Name: "cpu", Kind: vtime.CPU, Gflops: 8, Cores: 4}
}

// BenchmarkHermiteStep measures one shared Hermite step at N=1000 (the
// PhiGRAPE inner loop).
func BenchmarkHermiteStep(b *testing.B) {
	stars := ic.Plummer(1000, 1)
	s := nbody.NewSystem(nbody.NewCPUKernel(cpuDev()), 0.01)
	s.SetParticles(stars)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Step(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTreeField measures one Octgrav/Fi coupling evaluation: 10k gas
// sources onto 1k star targets.
func BenchmarkTreeField(b *testing.B) {
	stars, gas, err := ic.EmbeddedCluster(ic.ClusterSpec{Stars: 1000, Gas: 10000, GasFrac: 0.9, Seed: 2})
	if err != nil {
		b.Fatal(err)
	}
	k := tree.NewFi(cpuDev())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.FieldAt(context.Background(), gas.Mass, gas.Pos, stars.Pos, 0.05)
	}
}

// BenchmarkSPHStep measures one SPH step at N=10000 (the Gadget inner
// loop).
func BenchmarkSPHStep(b *testing.B) {
	_, gas, err := ic.EmbeddedCluster(ic.ClusterSpec{Stars: 1, Gas: 10000, GasFrac: 0.9, Seed: 3})
	if err != nil {
		b.Fatal(err)
	}
	g := sph.New()
	if err := g.SetParticles(gas); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	target := 0.0
	for i := 0; i < b.N; i++ {
		target += 1e-4
		if err := g.EvolveTo(context.Background(), target); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSmartSocketsConnect measures virtual connection setup through
// the overlay (reverse connection to a firewalled host).
func BenchmarkSmartSocketsConnect(b *testing.B) {
	tb, err := core.NewLabTestbed()
	if err != nil {
		b.Fatal(err)
	}
	defer tb.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		conn, err := tb.Net.Dial("desktop", "das4-vu.fe", vnet.SSHPort)
		if err != nil {
			b.Fatal(err)
		}
		conn.Close()
	}
}

// BenchmarkMPIAllreduce measures an 8-rank allreduce over the virtual
// cluster network (the SPH worker's hot collective).
func BenchmarkMPIAllreduce(b *testing.B) {
	net := vnet.New()
	c, err := net.AddCluster(vnet.ClusterSpec{Name: "bench", Site: "s", Nodes: 8,
		FrontendPolicy: vnet.Open, NodePolicy: vnet.Open})
	if err != nil {
		b.Fatal(err)
	}
	w, err := mpisim.NewWorld(net, c.NodeName)
	if err != nil {
		b.Fatal(err)
	}
	defer w.Close()
	x := make([]float64, 1000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		err := w.Run(func(r *mpisim.Rank) error {
			_, err := r.AllreduceSum(x)
			return err
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// benchStateWorker starts a 1000-star gravity worker behind the full ibis
// channel stack for the state-transfer benchmarks.
func benchStateWorker(b *testing.B) (*core.Testbed, *core.Simulation, *core.Gravity) {
	b.Helper()
	tb, err := core.NewLabTestbed()
	if err != nil {
		b.Fatal(err)
	}
	sim := core.NewSimulation(context.Background(), tb.Daemon, nil)
	g, err := sim.NewGravity(context.Background(), core.WorkerSpec{Resource: "lgm", Channel: core.ChannelIbis},
		core.GravityOptions{Kernel: "phigrape-gpu", Eps: 0.01})
	if err != nil {
		b.Fatal(err)
	}
	if err := g.SetParticles(ic.Plummer(1000, 13)); err != nil {
		b.Fatal(err)
	}
	return tb, sim, g
}

// BenchmarkBatchedStateTransfer pushes a whole 1000-particle mass column
// to a remote worker in ONE set_state round trip through the hand-rolled
// columnar codec — the batched path the coupled step uses.
func BenchmarkBatchedStateTransfer(b *testing.B) {
	tb, sim, g := benchStateWorker(b)
	defer tb.Close()
	defer sim.Stop()
	masses := g.Masses()
	st := kernel.NewState(len(masses)).AddFloat(data.AttrMass, masses)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := g.SetState(context.Background(), st); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPerCallStateTransfer pushes the same 1000-particle mass column
// as 1000 individual set_mass RPCs — the per-particle path the batched
// protocol replaces. Compare ns/op against BenchmarkBatchedStateTransfer.
func BenchmarkPerCallStateTransfer(b *testing.B) {
	tb, sim, g := benchStateWorker(b)
	defer tb.Close()
	defer sim.Stop()
	masses := g.Masses()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j, m := range masses {
			g.SetMass(j, m)
		}
		if err := g.Err(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPipelinedKick measures a bridge-style kick phase over K remote
// models, each behind the ibis channel on its own site. "sequential"
// completes each kick before issuing the next, so a step pays every
// link's round trip back to back (~K × RTT of virtual time).
// "pipelined" is the async coupler API (GoKick + Gather): all K kicks are
// on their wide-area links before the coupler waits, so a step costs
// about the slowest single link (~1 × RTT). The virtual-us/step metrics
// of the two sub-benchmarks are the comparison.
func BenchmarkPipelinedKick(b *testing.B) {
	const nStars = 64
	resources := []string{"lgm", "das4-vu", "das4-uva", "das4-tud"}
	setup := func(b *testing.B) (*core.Testbed, *core.Simulation, []*core.Gravity) {
		b.Helper()
		tb, err := core.NewLabTestbed()
		if err != nil {
			b.Fatal(err)
		}
		sim := core.NewSimulation(context.Background(), tb.Daemon, nil)
		var models []*core.Gravity
		for i, r := range resources {
			g, err := sim.NewGravity(context.Background(),
				core.WorkerSpec{Resource: r, Channel: core.ChannelIbis},
				core.GravityOptions{Eps: 0.01})
			if err != nil {
				b.Fatal(err)
			}
			if err := g.SetParticles(ic.Plummer(nStars, int64(i+30))); err != nil {
				b.Fatal(err)
			}
			models = append(models, g)
		}
		return tb, sim, models
	}
	dv := make([]data.Vec3, nStars) // zero kick: pure channel-stack cost

	b.Run("sequential", func(b *testing.B) {
		tb, sim, models := setup(b)
		defer tb.Close()
		defer sim.Stop()
		start := sim.Elapsed()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, g := range models {
				if err := g.Kick(context.Background(), dv); err != nil {
					b.Fatal(err)
				}
			}
		}
		b.StopTimer()
		b.ReportMetric(float64((sim.Elapsed()-start).Microseconds())/float64(b.N), "virtual-us/step")
	})
	b.Run("pipelined", func(b *testing.B) {
		tb, sim, models := setup(b)
		defer tb.Close()
		defer sim.Stop()
		calls := make([]core.Waiter, len(models))
		start := sim.Elapsed()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for j, g := range models {
				calls[j] = g.GoKick(dv)
			}
			if err := core.Gather(context.Background(), calls...); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		b.ReportMetric(float64((sim.Elapsed()-start).Microseconds())/float64(b.N), "virtual-us/step")
	})
}

// BenchmarkDirectVsHairpinTransfer measures the direct data plane against
// the coupler hairpin it replaces, on the multi-site topology the refactor
// targets: the coupler behind a DSL-class uplink, two remote sites joined
// by a fast research link, and a 1000-particle mass/position/velocity
// column set moving between them each step. "hairpin" Pulls the columns
// worker->coupler and Pushes them coupler->worker (two crossings of the
// slow uplink); "direct" orchestrates by RPC while the bytes flow
// worker->worker (one crossing of the fast inter-site link). Compare the
// virtual-us/step metrics: the modelled win is the acceptance bar's
// >= 1.5x (measured ~4x; see CHANGES.md for recorded numbers).
func BenchmarkDirectVsHairpinTransfer(b *testing.B) {
	const nStars = 1000
	setup := func(b *testing.B) (*core.Testbed, *core.Simulation, *core.Gravity, *core.Gravity) {
		b.Helper()
		tb, err := core.NewDSLTestbed()
		if err != nil {
			b.Fatal(err)
		}
		sim := core.NewSimulation(context.Background(), tb.Daemon, nil)
		newWorker := func(resource string, seed int64) *core.Gravity {
			g, err := sim.NewGravity(context.Background(),
				core.WorkerSpec{Resource: resource, Channel: core.ChannelIbis},
				core.GravityOptions{Eps: 0.01})
			if err != nil {
				b.Fatal(err)
			}
			if err := g.SetParticles(ic.Plummer(nStars, seed)); err != nil {
				b.Fatal(err)
			}
			return g
		}
		return tb, sim, newWorker(tb.SiteA, 17), newWorker(tb.SiteB, 18)
	}

	b.Run("hairpin", func(b *testing.B) {
		tb, sim, src, dst := setup(b)
		defer tb.Close()
		defer sim.Stop()
		start := sim.Elapsed()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			st, err := src.GetState(context.Background(), data.AttrMass, data.AttrPos, data.AttrVel)
			if err != nil {
				b.Fatal(err)
			}
			if err := dst.SetState(context.Background(), st); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		b.ReportMetric(float64((sim.Elapsed()-start).Microseconds())/float64(b.N), "virtual-us/step")
	})
	b.Run("direct", func(b *testing.B) {
		tb, sim, src, dst := setup(b)
		defer tb.Close()
		defer sim.Stop()
		start := sim.Elapsed()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := sim.TransferState(context.Background(), src, dst,
				data.AttrMass, data.AttrPos, data.AttrVel); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		stats := sim.TransferStats()
		if stats.Direct != b.N || stats.Fallback != 0 {
			b.Fatalf("transfer stats %+v: direct path not exercised", stats)
		}
		b.ReportMetric(float64((sim.Elapsed()-start).Microseconds())/float64(b.N), "virtual-us/step")
	})
}

// BenchmarkShardedKick measures a coupled step against a gravity model at
// 4000 particles on the two-site DSL testbed, solo (K=1) versus deployed
// as a K=4 gang (WorkerSpec.Workers) on site-a. Each iteration is one
// kick + one shared Hermite step: the force evaluation is the O(N²) cost
// the gang divides by K, while the slab halo exchange rides the site's
// internal links and the coupler pays only the broadcast control RPCs.
// Compare the virtual-us/step metrics: the acceptance bar is the gang
// modelling >= 2x faster per virtual step.
func BenchmarkShardedKick(b *testing.B) {
	const nStars = 4000
	run := func(b *testing.B, workers int) {
		tb, err := core.NewDSLTestbed()
		if err != nil {
			b.Fatal(err)
		}
		defer tb.Close()
		sim := core.NewSimulation(context.Background(), tb.Daemon, nil)
		defer sim.Stop()
		g, err := sim.NewGravity(context.Background(),
			core.WorkerSpec{Resource: tb.SiteA, Channel: core.ChannelIbis, Workers: workers},
			core.GravityOptions{Eps: 0.01})
		if err != nil {
			b.Fatal(err)
		}
		if err := g.SetParticles(ic.Plummer(nStars, 5)); err != nil {
			b.Fatal(err)
		}
		dv := make([]data.Vec3, nStars) // zero kick: the channel-stack cost
		target := 0.0
		start := sim.Elapsed()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := g.Kick(context.Background(), dv); err != nil {
				b.Fatal(err)
			}
			// A hair past the current time: exactly one (shortened)
			// Hermite step per iteration, so per-step costs compare.
			target += 1e-6
			if err := g.EvolveTo(context.Background(), target); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		b.ReportMetric(float64((sim.Elapsed()-start).Microseconds())/float64(b.N), "virtual-us/step")
	}
	b.Run("solo", func(b *testing.B) { run(b, 1) })
	b.Run("gang-4", func(b *testing.B) { run(b, 4) })
}

// BenchmarkElasticGang measures what skew-driven rebalancing buys on a
// heterogeneous site: a K=4 gravity gang at 1024 particles on the elastic
// testbed's site-mixed cluster, where one node runs at quarter speed. With
// static uniform slabs every step waits for the straggler (its quarter-
// rank costs 4x, so a step costs ~N rows of compute); with the rebalancer
// armed the slabs converge to throughput-proportional widths and a step
// costs ~0.31 N — the virtual-us/step ratio should approach 3.25x, and
// the acceptance bar is >= 2x. The trajectories are bit-identical: the
// first fixed warm-up segment is state-compared across the two arms.
func BenchmarkElasticGang(b *testing.B) {
	const nStars = 1024
	const warmupLegs = 4
	stars := ic.Plummer(nStars, 27)
	var refPos []data.Vec3 // warm-up state of the first arm, for bit-compat

	run := func(b *testing.B, rebalance bool) {
		tb, err := core.NewElasticTestbed()
		if err != nil {
			b.Fatal(err)
		}
		defer tb.Close()
		sim := core.NewSimulation(context.Background(), tb.Daemon, nil)
		defer sim.Stop()
		g, err := sim.NewGravity(context.Background(),
			core.WorkerSpec{Resource: tb.Mixed, Channel: core.ChannelIbis, Workers: 4},
			core.GravityOptions{Eps: 0.01})
		if err != nil {
			b.Fatal(err)
		}
		if rebalance {
			if err := g.EnableRebalance(); err != nil {
				b.Fatal(err)
			}
		}
		if err := g.SetParticles(stars); err != nil {
			b.Fatal(err)
		}
		// Warm-up: a fixed segment that (for the elastic arm) lets the
		// rebalancer observe the skew and reshard, and that pins the
		// bit-compat contract between the arms.
		target := 0.0
		for i := 0; i < warmupLegs; i++ {
			target += 1e-4
			if err := g.EvolveTo(context.Background(), target); err != nil {
				b.Fatal(err)
			}
			if rebalance {
				deadline := time.Now().Add(20 * time.Second)
				for g.RebalanceRounds() < uint64(i+1) && time.Now().Before(deadline) {
					time.Sleep(time.Millisecond)
				}
			}
		}
		st, err := g.GetState(nil, data.AttrPos)
		if err != nil {
			b.Fatal(err)
		}
		if refPos == nil {
			refPos = append([]data.Vec3(nil), st.Vec(data.AttrPos)...)
		} else {
			for i, p := range st.Vec(data.AttrPos) {
				if p != refPos[i] {
					b.Fatalf("particle %d: rebalanced arm diverged from static arm", i)
				}
			}
		}

		start := sim.Elapsed()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			target += 1e-6
			if err := g.EvolveTo(context.Background(), target); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		b.ReportMetric(float64((sim.Elapsed()-start).Microseconds())/float64(b.N), "virtual-us/step")
	}
	b.Run("static", func(b *testing.B) { run(b, false) })
	b.Run("rebalanced", func(b *testing.B) { run(b, true) })
}

// BenchmarkConcurrentSessions measures what the multi-tenant control
// plane buys: 8 single-tenant workloads through one scheduler, run
// back-to-back ("sequential" — the single-tenant daemon, where each user
// waits for the previous one's session) versus as 8 concurrently
// attached sessions ("concurrent-8"). The headline metric is the batch's
// virtual makespan: serialized tenants pay the sum of their sessions'
// virtual times, overlapped tenants pay the max — the acceptance bar is
// the concurrent makespan modelling >= 2x better (8 equal tenants give
// ~8x). Real wall-clock for the batch is reported alongside. Isolation
// is asserted, not assumed: every session must end at the same state
// digest in both modes, so concurrency provably does not perturb
// results.
func BenchmarkConcurrentSessions(b *testing.B) {
	const nSessions = 8
	w := exp.DefaultWorkload().Scaled(0.05)
	run := func(b *testing.B, concurrent bool) {
		var wall time.Duration
		var makespan time.Duration
		for i := 0; i < b.N; i++ {
			tb, err := core.NewLabTestbed()
			if err != nil {
				b.Fatal(err)
			}
			s := sched.New(tb.Daemon, sched.Config{MaxLive: nSessions, Recorder: tb.Recorder})
			t0 := time.Now()
			results, err := exp.RunConcurrentSessions(context.Background(), s,
				w, exp.AutoPlacement(), 1, nSessions, concurrent)
			wall += time.Since(t0)
			if err != nil {
				b.Fatal(err)
			}
			var batch time.Duration
			for _, r := range results {
				if r.StateDigest != results[0].StateDigest {
					b.Fatalf("sessions diverged: %x vs %x", r.StateDigest, results[0].StateDigest)
				}
				// Virtual cost of one session: worker startup + its iterations.
				cost := r.Setup + time.Duration(r.Iterations)*r.PerIteration
				if concurrent {
					if cost > batch {
						batch = cost // overlapped: the batch ends with the slowest
					}
				} else {
					batch += cost // serialized: each tenant waits for the last
				}
			}
			makespan += batch
			s.Shutdown()
			tb.Close()
		}
		b.ReportMetric(float64(wall.Milliseconds())/float64(b.N), "wall-ms/batch")
		b.ReportMetric(float64(makespan.Milliseconds())/float64(b.N), "virtual-ms/makespan")
	}
	b.Run("sequential", func(b *testing.B) { run(b, false) })
	b.Run("concurrent-8", func(b *testing.B) { run(b, true) })
}

// ensembleBenchDigests remembers the first arm's per-member digest set so
// the other arm (a separate sub-benchmark) can assert bit-equality: the
// sweep's results must be identical whether members run one at a time or
// race through 16 admission slots.
var ensembleBenchDigests []uint64

// BenchmarkEnsemble measures the ensemble layer at sweep scale: a
// 256-member agent-based campaign (4 initial-condition streams × 64
// couplings) run strictly sequentially versus fanned through 16 scheduler
// admission slots. The headline metric is the campaign's virtual
// makespan; the acceptance bar is the fan-out arm modelling >= 3x better
// with every member digest bit-equal across arms.
func BenchmarkEnsemble(b *testing.B) {
	const members = 256
	newSweep := func(sequential bool) *ensemble.ABMSweep {
		ics := []float64{0, 1, 2, 3}
		bs := make([]float64, members/len(ics))
		for i := range bs {
			bs[i] = 0.05 + 0.01*float64(i)
		}
		return &ensemble.ABMSweep{
			Plan: &ensemble.Plan{
				Name:     "bench",
				BaseSeed: 256,
				Axes: []ensemble.Axis{
					{Name: ensemble.AxisIC, Values: ics},
					{Name: ensemble.AxisB, Values: bs},
				},
				SetupAxes: []string{ensemble.AxisIC},
			},
			Base:       abm.Params{W: 16, H: 16, D: 0.15, R: 0.6, B: 0.2, DT: 0.01},
			Steps:      16,
			Spec:       core.WorkerSpec{Channel: core.ChannelIbis},
			Sequential: sequential,
		}
	}
	run := func(b *testing.B, sequential bool) {
		var wall, makespan, bound time.Duration
		for i := 0; i < b.N; i++ {
			tb, err := core.NewLabTestbed()
			if err != nil {
				b.Fatal(err)
			}
			s := sched.New(tb.Daemon, sched.Config{
				MaxLive: 16, QueueCap: members,
				RetryAfter: time.Millisecond, Recorder: tb.Recorder,
			})
			t0 := time.Now()
			rep, err := newSweep(sequential).Run(context.Background(), s)
			wall += time.Since(t0)
			s.Shutdown()
			tb.Close()
			if err != nil {
				b.Fatal(err)
			}
			if rep.Failures != 0 {
				b.Fatalf("%d members failed", rep.Failures)
			}
			if ensembleBenchDigests == nil {
				ensembleBenchDigests = rep.Digests()
			}
			for j, d := range rep.Digests() {
				if d == 0 || d != ensembleBenchDigests[j] {
					b.Fatalf("member %d digest diverged across arms: %016x vs %016x",
						j, d, ensembleBenchDigests[j])
				}
			}
			makespan += rep.Makespan
			bound += rep.SumVirtual
		}
		if !sequential && makespan*3 > bound {
			b.Fatalf("fan-out makespan %v not 3x under the sequential bound %v",
				makespan/time.Duration(b.N), bound/time.Duration(b.N))
		}
		b.ReportMetric(float64(wall.Milliseconds())/float64(b.N), "wall-ms/campaign")
		b.ReportMetric(float64(makespan.Milliseconds())/float64(b.N), "virtual-ms/makespan")
	}
	b.Run("sequential", func(b *testing.B) { run(b, true) })
	b.Run("fanout-16", func(b *testing.B) { run(b, false) })
}

// BenchmarkIbisChannelRoundTrip measures one coupler->daemon->IPL->proxy->
// worker RPC round trip (the Fig. 5 path).
func BenchmarkIbisChannelRoundTrip(b *testing.B) {
	tb, err := core.NewLabTestbed()
	if err != nil {
		b.Fatal(err)
	}
	defer tb.Close()
	sim := core.NewSimulation(context.Background(), tb.Daemon, nil)
	defer sim.Stop()
	g, err := sim.NewGravity(context.Background(), core.WorkerSpec{Resource: "lgm", Channel: core.ChannelIbis},
		core.GravityOptions{Kernel: "phigrape-gpu", Eps: 0.01})
	if err != nil {
		b.Fatal(err)
	}
	if err := g.SetParticles(ic.Plummer(16, 4)); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if g.Masses() == nil {
			b.Fatal(g.Err())
		}
	}
}

// BenchmarkCheckpointRecovery measures what the checkpoint subsystem
// buys on the SC11 topology (transatlantic coupler, worker in Leiden)
// when the worker is killed partway through a run: recovering via the
// last checkpoint (substitute worker + setup replay + snapshot restore)
// versus the only pre-checkpoint option — a full restart that re-uploads
// the initial conditions and re-integrates the lost model time from
// zero. Reported metric: virtual milliseconds from observed death to the
// model answering again at the same model time.
func BenchmarkCheckpointRecovery(b *testing.B) {
	const tCkpt = 1.0 / 8 // model time already integrated when the worker dies
	stars := ic.Plummer(256, 77)

	prep := func(b *testing.B) (*core.Testbed, *core.Simulation, *core.Gravity, chan int) {
		tb, err := core.NewSC11Testbed()
		if err != nil {
			b.Fatal(err)
		}
		sim := core.NewSimulation(context.Background(), tb.Daemon, nil)
		g, err := sim.NewGravity(context.Background(),
			core.WorkerSpec{Resource: "lgm", Channel: core.ChannelIbis},
			core.GravityOptions{Kernel: "phigrape-gpu", Eps: 0.01})
		if err != nil {
			b.Fatal(err)
		}
		if err := g.SetParticles(stars); err != nil {
			b.Fatal(err)
		}
		if err := g.EvolveTo(context.Background(), tCkpt); err != nil {
			b.Fatal(err)
		}
		died := make(chan int, 1)
		tb.Daemon.OnWorkerDied = func(id int) {
			select {
			case died <- id:
			default:
			}
		}
		return tb, sim, g, died
	}
	kill := func(b *testing.B, tb *core.Testbed, g *core.Gravity, died chan int) {
		tb.Daemon.KillWorker(g.WorkerIDs()[0])
		select {
		case <-died:
		case <-time.After(10 * time.Second):
			b.Fatal("death not observed")
		}
	}

	b.Run("restore-from-checkpoint", func(b *testing.B) {
		var virtual time.Duration
		for i := 0; i < b.N; i++ {
			tb, sim, g, died := prep(b)
			g.EnableReplacement()
			if _, err := sim.Checkpoint(context.Background()); err != nil {
				b.Fatal(err)
			}
			kill(b, tb, g, died)
			t0 := sim.Elapsed()
			// The next call triggers replacement: substitute worker, setup
			// replay, snapshot restore — no model time is recomputed.
			if _, _, err := g.Energy(context.Background()); err != nil {
				b.Fatal(err)
			}
			virtual += sim.Elapsed() - t0
			sim.Stop()
			tb.Close()
		}
		b.ReportMetric(float64(virtual.Milliseconds())/float64(b.N), "virtual-ms/recovery")
	})

	b.Run("full-restart", func(b *testing.B) {
		var virtual time.Duration
		for i := 0; i < b.N; i++ {
			tb, sim, g, died := prep(b)
			kill(b, tb, g, died)
			t0 := sim.Elapsed()
			// No checkpoint: start over — new worker, re-upload the initial
			// conditions over the transatlantic link, re-integrate to tCkpt.
			g2, err := sim.NewGravity(context.Background(),
				core.WorkerSpec{Resource: "lgm", Channel: core.ChannelIbis},
				core.GravityOptions{Kernel: "phigrape-gpu", Eps: 0.01})
			if err != nil {
				b.Fatal(err)
			}
			if err := g2.SetParticles(stars); err != nil {
				b.Fatal(err)
			}
			if err := g2.EvolveTo(context.Background(), tCkpt); err != nil {
				b.Fatal(err)
			}
			if _, _, err := g2.Energy(context.Background()); err != nil {
				b.Fatal(err)
			}
			virtual += sim.Elapsed() - t0
			sim.Stop()
			tb.Close()
		}
		b.ReportMetric(float64(virtual.Milliseconds())/float64(b.N), "virtual-ms/recovery")
	})
}
