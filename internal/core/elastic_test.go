package core

import (
	"context"
	"errors"
	"testing"
	"time"

	"jungle/internal/amuse/ic"
	"jungle/internal/deploy"
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

// waitRounds blocks until the rebalancer has completed at least `want`
// measurement rounds (they run asynchronously after evolve completions).
func waitRounds(t *testing.T, g *Gravity, want uint64) {
	t.Helper()
	deadline := time.Now().Add(20 * time.Second)
	for g.RebalanceRounds() < want {
		if time.Now().After(deadline) {
			t.Fatalf("rebalancer stuck at %d rounds, want %d", g.RebalanceRounds(), want)
		}
		time.Sleep(2 * time.Millisecond)
	}
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
// it. The rebalancer must observe that skew through the per-rank
// rank_load samples, reshard toward throughput-proportional slabs, and
// converge below the trigger threshold — while the trajectory stays
// bit-identical to a never-resharded gang (every rank holds the full
// replicated arrays; boundaries move, state does not).
func TestRebalancerConvergence(t *testing.T) {
	stars := ic.Plummer(256, 17)
	legs := make([]float64, 6)
	for i := range legs {
		legs[i] = float64(i+1) / 128
	}

	// Static reference on an identical (separate) testbed.
	tbS, simS := elasticSim(t)
	static, err := simS.NewGravity(context.Background(),
		WorkerSpec{Resource: tbS.Mixed, Channel: ChannelIbis, Workers: 4}, GravityOptions{Eps: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	if err := static.SetParticles(stars); err != nil {
		t.Fatal(err)
	}
	evolveLegs(t, static, legs...)
	wantPos, wantVel, _, _ := finalState(t, static)

	tb, sim := elasticSim(t)
	sim.Monitor = tb.Recorder
	g, err := sim.NewGravity(context.Background(),
		WorkerSpec{Resource: tb.Mixed, Channel: ChannelIbis, Workers: 4}, GravityOptions{Eps: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	if err := g.EnableRebalance(); err != nil {
		t.Fatal(err)
	}
	if err := g.SetParticles(stars); err != nil {
		t.Fatal(err)
	}
	// One leg at a time, waiting out each measurement round, so every
	// rank_load window covers exactly the evolves since the last round.
	for i, tEnd := range legs {
		if err := g.EvolveTo(context.Background(), tEnd); err != nil {
			t.Fatal(err)
		}
		waitRounds(t, g, uint64(i+1))
	}

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
	var stats *GangRowStats
	for _, row := range tb.Recorder.GangTable() {
		if row.Gang == label {
			s := row.Stats
			stats = &GangRowStats{Reshards: s.Reshards, Rows: s.Samples[len(s.Samples)-1].Rows}
		}
	}
	if stats == nil || stats.Reshards < 1 {
		t.Fatalf("no reshard recorded; table:\n%s", tb.Recorder.RenderGangs())
	}
	minRows, maxRows := stats.Rows[0], stats.Rows[0]
	for _, w := range stats.Rows {
		if w < minRows {
			minRows = w
		}
		if w > maxRows {
			maxRows = w
		}
	}
	// Throughput-proportional slabs: the straggler's slab must be roughly
	// a quarter of a fast rank's (ideal 256/3.25 ≈ 79 vs ≈ 20).
	if minRows == maxRows || minRows > maxRows/2 {
		t.Fatalf("slabs not rebalanced: per-rank rows %v", stats.Rows)
	}

	gotPos, gotVel, _, _ := finalState(t, g)
	for i := range wantPos {
		if wantPos[i] != gotPos[i] || wantVel[i] != gotVel[i] {
			t.Fatalf("particle %d: rebalanced gang diverged from static gang", i)
		}
	}
}

// GangRowStats is a test-local view of the bits of gang telemetry the
// convergence assertions need.
type GangRowStats struct {
	Reshards int
	Rows     []int
}

// TestSelectLeastLoadedTieBreak is the determinism regression: two
// byte-identical idle resources must always resolve to the
// lexicographically smallest name, independent of registration order or
// map iteration — placement is a pure function of the ledger.
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
	g.EnableReplacement()
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
	g.EnableReplacement()
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

// TestResizeDisarmsRebalancer: a resize under an armed rebalancer must
// disarm it (its cuts vectors are sized to the old K) rather than let a
// stale reshard poison the new gang.
func TestResizeDisarmsRebalancer(t *testing.T) {
	tb, sim := elasticSim(t)
	g, err := sim.NewGravity(context.Background(),
		WorkerSpec{Resource: tb.Mixed, Channel: ChannelIbis, Workers: 4}, GravityOptions{Eps: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	if err := g.EnableRebalance(); err != nil {
		t.Fatal(err)
	}
	if err := g.SetParticles(ic.Plummer(64, 13)); err != nil {
		t.Fatal(err)
	}
	if err := g.Resize(nil, 2); err != nil {
		t.Fatal(err)
	}
	if g.elasticState() != nil {
		t.Fatal("rebalancer still armed after resize")
	}
	// A solo model cannot arm at all.
	solo, err := sim.NewGravity(context.Background(),
		WorkerSpec{Resource: tb.Spare, Channel: ChannelIbis}, GravityOptions{Eps: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	if err := solo.EnableRebalance(); err == nil {
		t.Fatal("EnableRebalance on a solo worker accepted")
	}
}
