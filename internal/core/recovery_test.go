package core

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"jungle/internal/amuse/ic"
	"jungle/internal/core/kernel"
)

// One recovery source: a replacement restores the last checkpoint and
// nothing else, so it is made only while that snapshot covers every
// state-changing call that has completed. A death past that point is a
// structured error naming the call the snapshot misses — never a model
// silently rolled back to the snapshot, or restarted at clock 0.

// killWorker kills a worker and waits until the daemon has seen it die.
func killWorker(t *testing.T, d *Daemon, id int) {
	t.Helper()
	died := make(chan int, 4)
	d.OnWorkerDied = func(id int) { died <- id }
	d.KillWorker(id)
	select {
	case <-died:
	case <-time.After(10 * time.Second):
		t.Fatal("death not observed")
	}
}

// mustFailUncovered: err is the structured death of a model whose snapshot
// does not cover the named method.
func mustFailUncovered(t *testing.T, err error, methods ...string) {
	t.Helper()
	if !errors.Is(err, ErrWorkerDied) {
		t.Fatalf("err = %v, want ErrWorkerDied", err)
	}
	for _, m := range methods {
		if strings.Contains(err.Error(), "not replaced: "+m+" (call ") {
			t.Log(err)
			return
		}
	}
	t.Fatalf("err = %v, want it to name the uncovered call (one of %v) and both sequence numbers", err, methods)
}

// TestUncoveredEvolveFailsStructured: a model evolved past its
// last checkpoint (here: it has none) and then killed must not come back at
// clock 0 from its upload — the next evolve fails, naming the evolve the
// snapshot does not cover. Reading the state back first (Sync) covers
// nothing.
func TestUncoveredEvolveFailsStructured(t *testing.T) {
	for _, sync := range []bool{false, true} {
		name := "no sync"
		if sync {
			name = "sync before the kill"
		}
		t.Run(name, func(t *testing.T) {
			tb, sim := labSim(t)
			ctx := context.Background()
			g, err := sim.NewGravity(ctx, WorkerSpec{Channel: ChannelIbis}, GravityOptions{Eps: 0.01})
			if err != nil {
				t.Fatal(err)
			}
			stars := ic.Plummer(64, 71)
			if err := g.SetParticles(stars); err != nil {
				t.Fatal(err)
			}
			evolveLegs(t, g, 1.0/64)
			if sync {
				if err := g.GoPull(stars.Clone()).Wait(ctx); err != nil {
					t.Fatal(err)
				}
			}
			killWorker(t, tb.Daemon, g.WorkerIDs()[0])
			mustFailUncovered(t, g.EvolveTo(ctx, 2.0/64), "evolve")
			if !errors.Is(g.Err(), ErrWorkerDied) {
				t.Fatalf("sticky error = %v, want the death", g.Err())
			}
		})
	}
}

// TestUncoveredTransferFailsStructured: columns transferred into a
// model after its checkpoint are a write the snapshot does not
// hold. Killing the destination must not hand back the pre-transfer columns.
func TestUncoveredTransferFailsStructured(t *testing.T) {
	tb, sim := labSim(t)
	ctx := context.Background()
	src, err := sim.NewGravity(ctx, WorkerSpec{Resource: "das4-uva", Channel: ChannelIbis}, GravityOptions{Eps: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	dst, err := sim.NewGravity(ctx, WorkerSpec{Resource: "das4-tud", Channel: ChannelIbis}, GravityOptions{Eps: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	if err := src.SetParticles(ic.Plummer(32, 73)); err != nil {
		t.Fatal(err)
	}
	if err := dst.SetParticles(ic.Plummer(32, 79)); err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Checkpoint(ctx); err != nil {
		t.Fatal(err)
	}
	if err := sim.TransferState(ctx, src, dst); err != nil {
		t.Fatal(err)
	}
	killWorker(t, tb.Daemon, dst.WorkerIDs()[0])
	_, err = dst.GetState(ctx)
	mustFailUncovered(t, err, kernel.MethodAcceptState, kernel.MethodApplyState)
}

// TestRestoreAfterReadsIsBitIdentical: after a checkpoint the script only
// reads — Sync, GetState, Energy — and the worker dies mid-evolve. Reads
// leave the snapshot covering the model, so the evolve replays on a
// replacement restored from it alone (setup and restore, no upload) and the
// trajectory is bit-identical to an undisturbed run.
func TestRestoreAfterReadsIsBitIdentical(t *testing.T) {
	tb, sim := labSim(t)
	ctx := context.Background()
	const t1, t2 = 1.0 / 64, 1.0 / 8
	stars := ic.Plummer(256, 83)
	reads := func(g *Gravity) {
		t.Helper()
		if err := g.GoPull(stars.Clone()).Wait(ctx); err != nil {
			t.Fatal(err)
		}
		if _, err := g.GetState(ctx); err != nil {
			t.Fatal(err)
		}
		if _, _, err := g.Energy(ctx); err != nil {
			t.Fatal(err)
		}
	}
	calls := func(method string) (n uint64) {
		for k, st := range tb.Recorder.CallsSnapshot() {
			if k.Method == method {
				n += st.Hist.Count
			}
		}
		return n
	}

	base, err := sim.NewGravity(ctx, WorkerSpec{Resource: "das4-uva", Channel: ChannelIbis}, GravityOptions{Eps: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	if err := base.SetParticles(stars); err != nil {
		t.Fatal(err)
	}
	evolveLegs(t, base, t1)
	reads(base)
	evolveLegs(t, base, t2)
	wantPos, wantVel, wantKin, wantPot := finalState(t, base)

	g, err := sim.NewGravity(ctx, WorkerSpec{Resource: "lgm", Channel: ChannelIbis},
		GravityOptions{Kernel: "phigrape-gpu", Eps: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	if err := g.SetParticles(stars); err != nil {
		t.Fatal(err)
	}
	evolveLegs(t, g, t1)
	if _, err := sim.Checkpoint(ctx); err != nil {
		t.Fatal(err)
	}
	reads(g)
	uploads, restores := calls("set_particles"), calls(kernel.MethodRestore)

	call := g.GoEvolveTo(t2)
	time.Sleep(20 * time.Millisecond) // let the worker get into the integration
	killWorker(t, tb.Daemon, g.WorkerIDs()[0])
	waitCtx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	if err := call.Wait(waitCtx); err != nil {
		t.Fatalf("evolve across worker death: %v", err)
	}
	if got := calls("set_particles") - uploads; got != 0 {
		t.Fatalf("the replacement was uploaded %d particle sets on top of the snapshot", got)
	}
	if got := calls(kernel.MethodRestore) - restores; got != 1 {
		t.Fatalf("%d restores, want the one replacement", got)
	}
	gotPos, gotVel, gotKin, gotPot := finalState(t, g)
	mustMatchStates(t, "restored after reads", wantPos, wantVel, gotPos, gotVel, wantKin, wantPot, gotKin, gotPot)
}
