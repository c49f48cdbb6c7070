package core

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"jungle/internal/amuse/data"
	"jungle/internal/amuse/ic"
	"jungle/internal/core/kernel"
	"jungle/internal/deploy"
	"jungle/internal/mpisim"
	"jungle/internal/trace"
	"jungle/internal/vnet"
)

// elasticSim builds the elastic testbed (site-mixed with its quarter-speed
// straggler node, uniform site-spare) and a simulation on it.
func elasticSim(t *testing.T) (*Testbed, *Simulation) {
	t.Helper()
	tb, err := NewElasticTestbed()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(tb.Close)
	sim := NewSimulation(context.Background(), tb.Daemon, nil)
	t.Cleanup(func() { sim.Stop() })
	return tb, sim
}

// TestElasticTestbedNodeSpeed: the testbed really registers the straggler
// (config plumbing: Resource.NodeSpeed -> kernel.NodeDerate).
func TestElasticTestbedNodeSpeed(t *testing.T) {
	tb, _ := elasticSim(t)
	r, err := tb.Deployment.Resource(tb.Mixed)
	if err != nil {
		t.Fatal(err)
	}
	slow := 0
	for _, node := range r.Nodes {
		if f := r.NodeSpeedOf(node); f != 1 {
			slow++
			if f != 0.25 {
				t.Fatalf("straggler %s speed = %v, want 0.25", node, f)
			}
		}
	}
	if slow != 1 {
		t.Fatalf("%d derated nodes, want exactly 1", slow)
	}
}

// TestRebalancerConvergence is the elastic-gang smoke: a K=4 gang on
// site-mixed starts with uniform slabs, so the rank on the quarter-speed
// node takes ~4x the compute time per step and the whole gang waits for
// it. At the end of each evolve the ranks must see that skew in the load
// they gather, reshard toward throughput-proportional slabs, and converge
// below the trigger threshold — while the trajectory stays bit-identical
// to a gang on a uniform site, whose slabs never move (every rank holds the
// full replicated arrays; boundaries move, state does not).
func TestRebalancerConvergence(t *testing.T) {
	stars := ic.Plummer(256, 17)
	legs := make([]float64, 6)
	for i := range legs {
		legs[i] = float64(i+1) / 128
	}

	// Reference on an identical (separate) testbed's uniform site.
	tbS, simS := elasticSim(t)
	static := elasticGravity(t, simS, tbS.Spare, 4, stars)
	evolveLegs(t, static, legs...)
	wantPos, wantVel, _, _ := finalState(t, static)
	if n := reshards(gangSamples(tbS, static.modelProxy)); n != 0 {
		t.Fatalf("a gang on uniform nodes resharded %d times", n)
	}

	tb, sim := elasticSim(t)
	g := elasticGravity(t, sim, tb.Mixed, 4, stars)
	evolveLegs(t, g, legs...)
	label := string(g.kind) + "/" + tb.Mixed
	last, maxSkew, ok := tb.Recorder.GangSkew(label)
	if !ok {
		t.Fatalf("no gang telemetry under %q; table:\n%s", label, tb.Recorder.RenderGangs())
	}
	// Uniform slabs on a 4x-slow node: the first round must see severe
	// skew; after resharding the gauge must sit below the trigger.
	if maxSkew < 2 {
		t.Fatalf("max skew %.2f, want >= 2 (the straggler was never visible)", maxSkew)
	}
	if last >= 1.15 {
		t.Fatalf("final skew %.2f, want < threshold 1.15 (did not converge)", last)
	}
	samples := gangSamples(tb, g.modelProxy)
	if reshards(samples) < 1 {
		t.Fatalf("no reshard recorded; table:\n%s", tb.Recorder.RenderGangs())
	}
	// Throughput-proportional slabs: the straggler's slab must be roughly
	// a quarter of a fast rank's (ideal 256/3.25 ≈ 79 vs ≈ 20).
	rows := samples[len(samples)-1].Rows
	if minRows, maxRows := slices.Min(rows), slices.Max(rows); minRows == maxRows || minRows > maxRows/2 {
		t.Fatalf("slabs not rebalanced: per-rank rows %v", rows)
	}

	gotPos, gotVel, _, _ := finalState(t, g)
	for i := range wantPos {
		if wantPos[i] != gotPos[i] || wantVel[i] != gotVel[i] {
			t.Fatalf("particle %d: rebalanced gang diverged from the uniform site's gang", i)
		}
	}
}

// TestSelectLeastLoadedTieBreak is the determinism regression: two
// byte-identical idle resources must always resolve to the
// lexicographically smallest name, independent of registration order or
// map iteration — placement is a pure function of the job table.
func TestSelectLeastLoadedTieBreak(t *testing.T) {
	n := vnet.New()
	if _, err := n.AddHost("client", "hq", vnet.Open); err != nil {
		t.Fatal(err)
	}
	// Registered in reverse lexicographic order on purpose.
	for _, name := range []string{"zebra", "apple"} {
		c, err := n.AddCluster(vnet.ClusterSpec{
			Name: name, Site: name, Nodes: 2,
			FrontendPolicy: vnet.SSHOnly, NodePolicy: vnet.OutboundOnly,
			InternalLatency: lanLat, InternalBandwidth: tenG,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := n.AddLink("client", c.Frontend, lanLat, gbE); err != nil {
			t.Fatal(err)
		}
		dep := c // silence unused in the loop below
		_ = dep
	}
	dep, err := deploy.New(n, "client")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"zebra", "apple"} {
		if err := dep.AddResource(deploy.Resource{
			Name: name, Middleware: "sge", Frontend: name + ".fe",
			Nodes: []string{name + ".node00", name + ".node01"}, CPU: das4Node(),
		}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10; i++ {
		got, err := SelectLeastLoaded(dep, WorkerSpec{})
		if err != nil {
			t.Fatal(err)
		}
		if got != "apple" {
			t.Fatalf("run %d: SelectLeastLoaded = %q, want apple (tie must break by name)", i, got)
		}
	}
	// The migration variant excludes the resource being fled.
	got, err := selectLeastLoaded(dep, WorkerSpec{}, "apple")
	if err != nil {
		t.Fatal(err)
	}
	if got != "zebra" {
		t.Fatalf("exclude=apple: got %q, want zebra", got)
	}
}

// TestMigrateLiveGang: a running K=4 gang moves from site-mixed to
// site-spare mid-run. The handle survives, all rank jobs land on the
// target, and the post-migration trajectory stays bit-identical to an
// unmigrated run — checkpoint/restore moves the full model state.
func TestMigrateLiveGang(t *testing.T) {
	stars := ic.Plummer(192, 3)
	const t1, t2 = 1.0 / 64, 1.0 / 16

	tbR, simR := elasticSim(t)
	ref, err := simR.NewGravity(context.Background(),
		WorkerSpec{Resource: tbR.Spare, Channel: ChannelIbis, Workers: 4}, GravityOptions{Eps: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.SetParticles(stars); err != nil {
		t.Fatal(err)
	}
	evolveLegs(t, ref, t1, t2)
	wantPos, wantVel, _, _ := finalState(t, ref)

	tb, sim := elasticSim(t)
	g, err := sim.NewGravity(context.Background(),
		WorkerSpec{Resource: tb.Mixed, Channel: ChannelIbis, Workers: 4}, GravityOptions{Eps: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	if err := g.SetParticles(stars); err != nil {
		t.Fatal(err)
	}
	evolveLegs(t, g, t1)
	oldWorkers := g.GangWorkers()

	if err := g.Migrate(nil, tb.Spare); err != nil {
		t.Fatal(err)
	}
	if r := g.resource(); r != tb.Spare {
		t.Fatalf("after migration resource = %q, want %q", r, tb.Spare)
	}
	newWorkers := g.GangWorkers()
	if len(newWorkers) != 4 {
		t.Fatalf("gang workers after migration: %v", newWorkers)
	}
	spare, err := tb.Deployment.Resource(tb.Spare)
	if err != nil {
		t.Fatal(err)
	}
	for i, id := range newWorkers {
		job := tb.Daemon.WorkerJob(id)
		if job == nil || job.Target != spare.Frontend {
			t.Fatalf("rank %d (worker %d) not on %s: job %+v", i, id, tb.Spare, job)
		}
	}
	for _, id := range oldWorkers {
		if tb.Daemon.WorkerAlive(id) {
			t.Fatalf("old worker %d still alive after migration", id)
		}
	}

	evolveLegs(t, g, t2)
	gotPos, gotVel, _, _ := finalState(t, g)
	for i := range wantPos {
		if wantPos[i] != gotPos[i] || wantVel[i] != gotVel[i] {
			t.Fatalf("particle %d: migrated gang diverged from unmigrated run", i)
		}
	}
}

// TestMigrateWhileCheckpointInFlight races a session checkpoint, a long
// pipelined evolve and a live migration (run under make race). The FIFO
// pull and the proxy's phase must serialize them: everything completes, nothing
// deadlocks, and the model still answers afterwards.
func TestMigrateWhileCheckpointInFlight(t *testing.T) {
	tb, sim := elasticSim(t)
	g, err := sim.NewGravity(context.Background(),
		WorkerSpec{Resource: tb.Mixed, Channel: ChannelIbis, Workers: 4}, GravityOptions{Eps: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	if err := g.SetParticles(ic.Plummer(192, 5)); err != nil {
		t.Fatal(err)
	}
	evolveLegs(t, g, 1.0/128)

	// A long evolve in flight, a checkpoint racing it, and a migration
	// racing both.
	call := g.GoEvolveTo(1.0 / 16)
	cpErr := make(chan error, 1)
	go func() {
		_, err := sim.Checkpoint(context.Background())
		cpErr <- err
	}()
	if err := g.Migrate(nil, tb.Spare); err != nil {
		t.Fatalf("migrate during checkpoint: %v", err)
	}
	waitCtx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := call.Wait(waitCtx); err != nil {
		t.Fatalf("pipelined evolve across migration: %v", err)
	}
	select {
	case err := <-cpErr:
		if err != nil {
			t.Fatalf("checkpoint racing migration: %v", err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("checkpoint never completed")
	}
	if r := g.resource(); r != tb.Spare {
		t.Fatalf("resource = %q, want %q", r, tb.Spare)
	}
	// The model still works end to end.
	evolveLegs(t, g, 1.0/8)
}

// TestKillRankMidMigration kills one of the NEW rank workers while the
// migration is rebuilding state on the target resource. The migration
// must fail with the structured ErrMigration (never a hang: the
// checkpoint pull and replay are the rebuild's own calls, never parked), and the
// gang must then recover through the ordinary dead-rank path — the
// snapshot is cached and the spec already names the new resource.
func TestKillRankMidMigration(t *testing.T) {
	stars := ic.Plummer(192, 7)
	const t1, t2 = 1.0 / 64, 1.0 / 16

	tbR, simR := elasticSim(t)
	ref, err := simR.NewGravity(context.Background(),
		WorkerSpec{Resource: tbR.Spare, Channel: ChannelIbis, Workers: 4}, GravityOptions{Eps: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.SetParticles(stars); err != nil {
		t.Fatal(err)
	}
	evolveLegs(t, ref, t1, t2)
	wantPos, wantVel, _, _ := finalState(t, ref)

	tb, sim := elasticSim(t)
	g, err := sim.NewGravity(context.Background(),
		WorkerSpec{Resource: tb.Mixed, Channel: ChannelIbis, Workers: 4}, GravityOptions{Eps: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	if err := g.SetParticles(stars); err != nil {
		t.Fatal(err)
	}
	evolveLegs(t, g, t1)
	oldWorkers := append([]int(nil), g.GangWorkers()...)

	// Watcher: the moment the NEW gang appears (worker ids change), kill
	// one of its ranks — that lands between gang start and the end of the
	// setup/restore replay, or just after; both paths must keep the gang
	// alive.
	stop := make(chan struct{})
	killed := make(chan int, 1)
	go func() {
		for {
			select {
			case <-stop:
				return
			default:
			}
			ids := g.GangWorkers()
			if len(ids) == 4 && ids[0] != oldWorkers[0] {
				tb.Daemon.KillWorker(ids[1])
				killed <- ids[1]
				return
			}
			time.Sleep(200 * time.Microsecond)
		}
	}()

	// The new worker ids stay visible after Migrate returns, so a watcher
	// whose poll missed the replay window still lands its kill just after
	// it; stopping the watcher first would make the test depend on how
	// long the replay takes in wall time.
	migErr := g.Migrate(nil, tb.Spare)
	select {
	case <-killed:
	case <-time.After(time.Second):
		t.Fatal("watcher never saw the new gang (migration did not start?)")
	}
	close(stop)
	if migErr != nil && !errors.Is(migErr, ErrMigration) {
		t.Fatalf("migration failure not structured: %v", migErr)
	}

	// Whether the kill landed mid-replay (migErr != nil) or just after
	// (migErr == nil, next call sees the dead rank), the gang must
	// recover and match the reference bit for bit.
	evolveLegs(t, g, t2)
	gotPos, gotVel, _, _ := finalState(t, g)
	for i := range wantPos {
		if wantPos[i] != gotPos[i] || wantVel[i] != gotVel[i] {
			t.Fatalf("particle %d: gang diverged after kill-mid-migration (migErr=%v)", i, migErr)
		}
	}
}

// TestResizeGrowShrinkBitCompat grows a K=2 gang to K=4 mid-run, then
// shrinks it back to 2, comparing positions and velocities bitwise
// against a static-K run. Rank count is invisible in the results (the
// same property TestGangMatchesSoloWorker pins for static gangs), so an
// elastic K change must be too. Energies are NOT compared bitwise: the
// cross-rank reductions associate differently for different K.
func TestResizeGrowShrinkBitCompat(t *testing.T) {
	stars := ic.Plummer(192, 11)
	const t1, t2, t3 = 1.0 / 64, 1.0 / 32, 1.0 / 16

	tbR, simR := elasticSim(t)
	ref, err := simR.NewGravity(context.Background(),
		WorkerSpec{Resource: tbR.Spare, Channel: ChannelIbis, Workers: 4}, GravityOptions{Eps: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.SetParticles(stars); err != nil {
		t.Fatal(err)
	}
	evolveLegs(t, ref, t1, t2, t3)
	wantPos, wantVel, _, _ := finalState(t, ref)

	tb, sim := elasticSim(t)
	g, err := sim.NewGravity(context.Background(),
		WorkerSpec{Resource: tb.Spare, Channel: ChannelIbis, Workers: 2}, GravityOptions{Eps: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	if err := g.SetParticles(stars); err != nil {
		t.Fatal(err)
	}
	evolveLegs(t, g, t1)

	if err := g.Resize(nil, 0); err == nil {
		t.Fatal("Resize(0) accepted")
	}
	if err := g.Resize(nil, 4); err != nil {
		t.Fatalf("grow 2 -> 4: %v", err)
	}
	if n := len(g.GangWorkers()); n != 4 {
		t.Fatalf("after grow: %d ranks, want 4", n)
	}
	evolveLegs(t, g, t2)

	if err := g.Resize(nil, 2); err != nil {
		t.Fatalf("shrink 4 -> 2: %v", err)
	}
	if n := len(g.GangWorkers()); n != 2 {
		t.Fatalf("after shrink: %d ranks, want 2", n)
	}
	evolveLegs(t, g, t3)

	gotPos, gotVel, _, _ := finalState(t, g)
	for i := range wantPos {
		if wantPos[i] != gotPos[i] || wantVel[i] != gotVel[i] {
			t.Fatalf("particle %d: elastic-K run diverged from static-K run", i)
		}
	}
}

// elasticKind is a kind whose gang ranks keep slab cuts, with a load small
// enough for the race detector: how to start it, the legs to evolve, the
// columns that make up its trajectory, and a smaller and a larger set of
// particles to load in its place.
type elasticKind struct {
	name            string
	legs            []float64
	attrs           []string
	start           func(t *testing.T, sim *Simulation, resource string, k int) *modelProxy
	smaller, larger *data.Particles
}

func elasticKinds(t *testing.T) []elasticKind {
	t.Helper()
	stars := ic.Plummer(192, 23)
	gases := make([]*data.Particles, 3)
	for i, n := range []int{160, 96, 240} {
		var err error
		if _, gases[i], err = ic.EmbeddedCluster(ic.ClusterSpec{Stars: 8, Gas: n, GasFrac: 0.5, Seed: 5 + int64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	gas := gases[0]
	return []elasticKind{
		{name: "gravity", legs: []float64{1.0 / 128, 2.0 / 128, 3.0 / 128}, attrs: []string{data.AttrPos, data.AttrVel},
			start: func(t *testing.T, sim *Simulation, resource string, k int) *modelProxy {
				return elasticGravity(t, sim, resource, k, stars).modelProxy
			},
			smaller: ic.Plummer(100, 29), larger: ic.Plummer(300, 31)},
		{name: "hydro", legs: []float64{0.002, 0.004, 0.006}, attrs: []string{data.AttrPos, data.AttrVel, data.AttrInternalEnergy},
			smaller: gases[1], larger: gases[2],
			start: func(t *testing.T, sim *Simulation, resource string, k int) *modelProxy {
				t.Helper()
				h, err := sim.NewHydro(context.Background(),
					WorkerSpec{Resource: resource, Channel: ChannelIbis, Workers: k}, HydroOptions{SelfGravity: true, EpsGrav: 0.01})
				if err != nil {
					t.Fatal(err)
				}
				if err := h.SetParticles(gas); err != nil {
					t.Fatal(err)
				}
				return h.modelProxy
			}},
	}
}

// trajectory is m's state: the kind's columns, bit for bit.
func (k elasticKind) trajectory(t *testing.T, m *modelProxy) *kernel.StatePayload {
	t.Helper()
	st, err := m.GetState(nil, k.attrs...)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// mustMatchTrajectory fails unless got holds want's columns bit for bit.
func (k elasticKind) mustMatchTrajectory(t *testing.T, what string, want, got *kernel.StatePayload) {
	t.Helper()
	for _, a := range k.attrs {
		if !slices.Equal(want.Vec(a), got.Vec(a)) || !slices.Equal(want.Float(a), got.Float(a)) {
			t.Fatalf("%s: %s diverged from the undisturbed run", what, a)
		}
	}
}

// gangSamples are the loads the monitor recorded for m on its resource.
func gangSamples(tb *Testbed, m *modelProxy) []trace.GangSample {
	label := string(m.kind) + "/" + m.resource()
	for _, row := range tb.Recorder.GangTable() {
		if row.Gang == label {
			return row.Stats.Samples
		}
	}
	return nil
}

// reshards counts the samples on which the ranks resharded.
func reshards(samples []trace.GangSample) int {
	n := 0
	for _, s := range samples {
		if s.Action == "reshard" {
			n++
		}
	}
	return n
}

// mustStartUniform fails unless the first of samples, a rebuilt gang's
// first evolve, ran on the uniform slabs of n rows.
func mustStartUniform(t *testing.T, what string, samples []trace.GangSample, n int) {
	t.Helper()
	if len(samples) == 0 {
		t.Fatalf("%s: no load recorded", what)
	}
	k := len(samples[0].Rows)
	for r, rows := range samples[0].Rows {
		if lo, hi := mpisim.Slab(n, r, k); rows != hi-lo {
			t.Fatalf("%s: first evolve ran on rows %v, not the uniform slabs", what, samples[0].Rows)
		}
	}
}

// TestKillRankAfterReshard: a rank dies after its gang has resharded. The
// replacement knows only the uniform slabs, so every rank — the survivors
// too — must start the rebuilt gang from them (a hydro gang whose ranks
// disagree fails its first exchange). The recovered gang reshards again on
// its own, and its trajectory matches an undisturbed run bit for bit.
func TestKillRankAfterReshard(t *testing.T) {
	for _, k := range elasticKinds(t) {
		t.Run(k.name, func(t *testing.T) {
			tbR, simR := elasticSim(t)
			ref := k.start(t, simR, tbR.Mixed, 4)
			evolveLegs(t, ref, k.legs...)
			want := k.trajectory(t, ref)

			tb, sim := elasticSim(t)
			m := k.start(t, sim, tb.Mixed, 4)
			evolveLegs(t, m, k.legs[0])
			if reshards(gangSamples(tb, m)) == 0 {
				t.Fatalf("no reshard after the first leg: %+v", gangSamples(tb, m))
			}
			if _, err := sim.Checkpoint(context.Background()); err != nil {
				t.Fatal(err)
			}
			before, ids := len(gangSamples(tb, m)), m.WorkerIDs()
			killWorker(t, tb.Daemon, ids[1])
			evolveLegs(t, m, k.legs[1:]...)
			if now := m.WorkerIDs(); now[1] == ids[1] {
				t.Fatalf("rank 1 not replaced: workers %v -> %v", ids, now)
			}
			after := gangSamples(tb, m)[before:]
			mustStartUniform(t, "after recovery", after, m.n)
			if reshards(after) == 0 {
				t.Fatalf("the recovered gang never resharded on its own: %+v", after)
			}
			k.mustMatchTrajectory(t, "after recovery", want, k.trajectory(t, m))
		})
	}
}

// TestNewParticleCountResetsCuts: a resharded gang loads a smaller set of
// particles, then a larger one. Cuts are for one particle count — over a
// smaller set a rank would read past its end, over a larger one rows would
// belong to no rank — so every load puts the ranks back on the uniform
// slabs of the new count, and each evolve after it matches a solo worker's
// bit for bit.
func TestNewParticleCountResetsCuts(t *testing.T) {
	for _, k := range elasticKinds(t) {
		t.Run(k.name, func(t *testing.T) {
			tb, sim := elasticSim(t)
			solo, m := k.start(t, sim, tb.Spare, 1), k.start(t, sim, tb.Mixed, 4)
			evolveLegs(t, solo, k.legs[0])
			evolveLegs(t, m, k.legs[0])
			if reshards(gangSamples(tb, m)) == 0 {
				t.Fatalf("no reshard after the first leg: %+v", gangSamples(tb, m))
			}
			for i, set := range []*data.Particles{k.smaller, k.larger} {
				before := len(gangSamples(tb, m))
				for _, x := range []*modelProxy{solo, m} {
					if err := x.SetParticles(set); err != nil {
						t.Fatal(err)
					}
					evolveLegs(t, x, k.legs[1+i])
				}
				what := fmt.Sprintf("after loading %d particles", set.Len())
				mustStartUniform(t, what, gangSamples(tb, m)[before:], set.Len())
				k.mustMatchTrajectory(t, what, k.trajectory(t, solo), k.trajectory(t, m))
			}
		})
	}
}

// TestRebuildResizedGangReshards: a resharded gang shrinks and grows back.
// Each new shape starts from the uniform slabs of its own K, the regrown
// gang reshards again on its own, and the trajectory matches an undisturbed
// run bit for bit.
func TestRebuildResizedGangReshards(t *testing.T) {
	for _, k := range elasticKinds(t) {
		t.Run(k.name, func(t *testing.T) {
			tbR, simR := elasticSim(t)
			ref := k.start(t, simR, tbR.Mixed, 4)
			evolveLegs(t, ref, k.legs...)
			want := k.trajectory(t, ref)

			tb, sim := elasticSim(t)
			m := k.start(t, sim, tb.Mixed, 4)
			evolveLegs(t, m, k.legs[0])
			if reshards(gangSamples(tb, m)) == 0 {
				t.Fatalf("no reshard after the first leg: %+v", gangSamples(tb, m))
			}
			var samples []trace.GangSample
			for i, workers := range []int{2, 4} {
				if err := m.Resize(nil, workers); err != nil {
					t.Fatalf("resize to %d: %v", workers, err)
				}
				before := len(gangSamples(tb, m))
				evolveLegs(t, m, k.legs[1+i])
				samples = gangSamples(tb, m)[before:]
				what := fmt.Sprintf("after resizing to %d", workers)
				if mustStartUniform(t, what, samples, m.n); len(samples[0].Rows) != workers {
					t.Fatalf("%s: loads of %d ranks", what, len(samples[0].Rows))
				}
			}
			if reshards(samples) == 0 {
				t.Fatalf("the regrown gang never resharded on its own: %+v", samples)
			}
			k.mustMatchTrajectory(t, "after resizing", want, k.trajectory(t, m))
		})
	}
}

// TestSelfBalancingGangRepeats: which node each rank lands on, where a gang
// reshards, and so every virtual time, are a function of the inputs alone.
// A K=4 gravity gang on site-mixed evolves eight legs back to back and a
// ninth pipelined with a pull, three times on fresh testbeds under
// GOMAXPROCS 1, 2 and 8 beside a goroutine that keeps the scheduler busy;
// every run ends each leg at the same virtual time and records the same
// loads.
func TestSelfBalancingGangRepeats(t *testing.T) {
	var stop atomic.Bool
	spun := make(chan struct{})
	go func() {
		defer close(spun)
		for !stop.Load() {
			runtime.Gosched()
		}
	}()
	defer func() {
		stop.Store(true)
		<-spun
	}()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))

	stars := ic.Plummer(128, 19)
	type outcome struct {
		elapsed []time.Duration
		samples []trace.GangSample
	}
	run := func(procs int) outcome {
		runtime.GOMAXPROCS(procs)
		tb, sim := elasticSim(t)
		g := elasticGravity(t, sim, tb.Mixed, 4, stars)
		var o outcome
		for i := 1; i <= 8; i++ {
			evolveLegs(t, g, float64(i)/512)
			o.elapsed = append(o.elapsed, sim.Elapsed())
		}
		evolve, pull := g.GoEvolveTo(9.0/512), g.GoPull(stars.Clone())
		if err := evolve.Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
		if err := pull.Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
		o.elapsed = append(o.elapsed, sim.Elapsed())
		o.samples = gangSamples(tb, g.modelProxy)
		return o
	}
	first := run(1)
	if len(first.samples) != 9 || reshards(first.samples) == 0 {
		t.Fatalf("%d loads, %d reshards: the gang exercises nothing", len(first.samples), reshards(first.samples))
	}
	for _, procs := range []int{2, 8} {
		got := run(procs)
		if !slices.Equal(got.elapsed, first.elapsed) {
			t.Fatalf("GOMAXPROCS %d: legs ended at %v, under 1 at %v", procs, got.elapsed, first.elapsed)
		}
		if !reflect.DeepEqual(got.samples, first.samples) {
			t.Fatalf("GOMAXPROCS %d: loads %+v, under 1 %+v", procs, got.samples, first.samples)
		}
	}
}
