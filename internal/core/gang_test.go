package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"testing"
	"time"

	"jungle/internal/amuse/data"
	"jungle/internal/amuse/ic"
)

// TestGangMatchesSoloWorker drives a K=3 gravity gang through the full
// stack — StartGang, gang_init link wiring over the overlay, broadcast
// evolve with halo exchange between the rank workers — and requires the
// trajectory to match a solo worker's bit for bit: domain decomposition
// must be invisible in the results.
func TestGangMatchesSoloWorker(t *testing.T) {
	tb, sim := labSim(t)
	_ = tb
	stars := ic.Plummer(48, 21)
	const tEnd = 1.0 / 32

	solo, err := sim.NewGravity(context.Background(),
		WorkerSpec{Resource: "das4-uva", Channel: ChannelIbis}, GravityOptions{Eps: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	if err := solo.SetParticles(stars); err != nil {
		t.Fatal(err)
	}
	if err := solo.EvolveTo(context.Background(), tEnd); err != nil {
		t.Fatal(err)
	}
	want, err := solo.GetState(nil, data.AttrPos, data.AttrVel)
	if err != nil {
		t.Fatal(err)
	}

	gang, err := sim.NewGravity(context.Background(),
		WorkerSpec{Resource: "das4-vu", Channel: ChannelIbis, Workers: 3}, GravityOptions{Eps: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	if ids := gang.GangWorkers(); len(ids) != 3 {
		t.Fatalf("gang workers = %v, want 3 ranks", ids)
	}
	if err := gang.SetParticles(stars); err != nil {
		t.Fatal(err)
	}
	if err := gang.EvolveTo(context.Background(), tEnd); err != nil {
		t.Fatal(err)
	}
	got, err := gang.GetState(nil, data.AttrPos, data.AttrVel)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < want.N; i++ {
		if want.Vec(data.AttrPos)[i] != got.Vec(data.AttrPos)[i] ||
			want.Vec(data.AttrVel)[i] != got.Vec(data.AttrVel)[i] {
			t.Fatalf("particle %d: gang diverged from solo worker", i)
		}
	}

	// Energies reduce across the ranks' peer links and must agree with
	// the solo worker's to float accuracy (summation order differs).
	kinS, potS, err := solo.Energy(nil)
	if err != nil {
		t.Fatal(err)
	}
	kinG, potG, err := gang.Energy(nil)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(kinS-kinG) > 1e-12*math.Abs(kinS) || math.Abs(potS-potG) > 1e-12*math.Abs(potS) {
		t.Fatalf("gang energy (%v, %v) vs solo (%v, %v)", kinG, potG, kinS, potS)
	}
}

// TestGangColocatedPlacement: an unconstrained gang spec selects one
// resource for all ranks (halo traffic must ride intra-site links), and
// the rank jobs land there together.
func TestGangColocatedPlacement(t *testing.T) {
	tb, sim := labSim(t)
	g, err := sim.NewGravity(context.Background(),
		WorkerSpec{Channel: ChannelIbis, Workers: 3}, GravityOptions{Eps: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	ids := g.GangWorkers()
	if len(ids) != 3 {
		t.Fatalf("gang workers = %v", ids)
	}
	var target string
	for i, id := range ids {
		job := tb.Daemon.WorkerJob(id)
		if job == nil {
			t.Fatalf("rank %d (worker %d): no job", i, id)
		}
		if i == 0 {
			target = job.Target
			continue
		}
		if job.Target != target {
			t.Fatalf("rank %d on %q, rank 0 on %q: gang not co-located", i, job.Target, target)
		}
	}
	// The 8-node VU cluster is the only resource that fits 3 rank jobs
	// with headroom and has the best aggregate CPU score.
	if r := g.resource(); r != "das4-vu" {
		t.Fatalf("gang placed on %q, want das4-vu", r)
	}
}

// TestGangRankDeathMidStep kills one rank's job while the gang is inside
// a long sharded evolve. The structured ErrWorkerDied must reach the
// coupler through the merged gang completion, the surviving ranks must
// abort their collectives (no deadlock waiting on the dead peer), and
// teardown must not leak peer streams (this test runs under make race).
func TestGangRankDeathMidStep(t *testing.T) {
	tb, sim := labSim(t)
	g, err := sim.NewGravity(context.Background(),
		WorkerSpec{Resource: "das4-vu", Channel: ChannelIbis, Workers: 3}, GravityOptions{Eps: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	// Enough particles that the evolve is genuinely in flight when the
	// kill lands.
	if err := g.SetParticles(ic.Plummer(256, 9)); err != nil {
		t.Fatal(err)
	}
	died := make(chan int, 4)
	tb.Daemon.OnWorkerDied = func(id int) { died <- id }

	call := g.GoEvolveTo(1.0 / 8)
	time.Sleep(20 * time.Millisecond) // let the ranks enter the step
	victim := g.GangWorkers()[1]
	tb.Daemon.KillWorker(victim)

	select {
	case <-died:
	case <-time.After(10 * time.Second):
		t.Fatal("rank death not observed by the pool")
	}
	waitCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err = call.Wait(waitCtx)
	if !errors.Is(err, ErrWorkerDied) {
		t.Fatalf("evolve after rank death: err = %v, want ErrWorkerDied", err)
	}
	// The gang is dead as a unit: the next call fails the same way, fast.
	if err := g.EvolveTo(context.Background(), 1.0); !errors.Is(err, ErrWorkerDied) {
		t.Fatalf("follow-up call: err = %v, want ErrWorkerDied", err)
	}
	// Clean teardown: surviving ranks stop; nothing hangs.
	if err := sim.Stop(); err != nil {
		t.Logf("stop after rank death: %v", err) // dead rank may report its abort
	}
}

// TestGangDeadRankAnsweredInLine: the daemon answers a call to a dead
// worker on the goroutine that issues it, so a broadcast to a K = 2 gang
// with a dead rank completes that rank's share inside the gang channel's
// issue loop, with its lock held (and, with every rank dead, the whole
// call). It must still end in ErrWorkerDied, and the next call too, within
// a wall bound: no completion may wait on the issue lock.
func TestGangDeadRankAnsweredInLine(t *testing.T) {
	for _, dead := range [][]int{{0}, {1}, {0, 1}} {
		t.Run(fmt.Sprintf("ranks %v dead", dead), func(t *testing.T) {
			tb, sim := labSim(t)
			ctx := context.Background()
			g, err := sim.NewGravity(ctx,
				WorkerSpec{Resource: "das4-vu", Channel: ChannelIbis, Workers: 2}, GravityOptions{Eps: 0.01})
			if err != nil {
				t.Fatal(err)
			}
			stars := ic.Plummer(32, 5)
			if err := g.SetParticles(stars); err != nil {
				t.Fatal(err)
			}
			for _, rank := range dead {
				killWorker(t, tb.Daemon, g.GangWorkers()[rank])
			}
			done := make(chan error, 2)
			go func() {
				done <- g.Kick(ctx, make([]data.Vec3, stars.Len()))
				done <- g.Kick(ctx, make([]data.Vec3, stars.Len()))
			}()
			for call := 0; call < 2; call++ {
				select {
				case err := <-done:
					if !errors.Is(err, ErrWorkerDied) {
						t.Fatalf("kick %d: err = %v, want ErrWorkerDied", call, err)
					}
				case <-time.After(30 * time.Second):
					t.Fatalf("kick %d to a gang with dead ranks %v did not return", call, dead)
				}
			}
		})
	}
}

// TestGangNonShardableKind: a kind whose service has no gang support must
// fail at start with a clear error, not run as divergent solo workers.
func TestGangNonShardableKind(t *testing.T) {
	tb, sim := labSim(t)
	_ = tb
	_, err := sim.NewStellar(context.Background(),
		WorkerSpec{Resource: "das4-vu", Channel: ChannelIbis, Workers: 2},
		[]float64{5, 9, 12}, 1, 1)
	if err == nil {
		t.Fatal("stellar gang started; want shardability error")
	}
}

// TestGangRequiresIbisChannel: gangs need peer planes, which only the
// ibis channel provides.
func TestGangRequiresIbisChannel(t *testing.T) {
	tb, sim := labSim(t)
	_ = tb
	for _, ch := range []string{ChannelMPI, ChannelSockets} {
		_, err := sim.NewGravity(context.Background(),
			WorkerSpec{Resource: "das4-vu", Channel: ch, Workers: 2}, GravityOptions{Eps: 0.01})
		if err == nil {
			t.Fatalf("gang on channel %q started; want error", ch)
		}
	}
}

// TestTransferToGangHairpins: a state transfer INTO a gang must take the
// consistent broadcast hairpin (all ranks apply), and the columns must
// land on every rank — observed through a read (rank 0) and a follow-up
// evolve that would diverge if a rank missed the write.
func TestTransferToGangHairpins(t *testing.T) {
	tb, sim := labSim(t)
	_ = tb
	src, err := sim.NewGravity(context.Background(),
		WorkerSpec{Resource: "lgm", Channel: ChannelIbis}, GravityOptions{Kernel: "phigrape-gpu", Eps: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	stars := ic.Plummer(32, 33)
	if err := src.SetParticles(stars); err != nil {
		t.Fatal(err)
	}
	gang, err := sim.NewGravity(context.Background(),
		WorkerSpec{Resource: "das4-vu", Channel: ChannelIbis, Workers: 2}, GravityOptions{Eps: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	// Same membership, different phase-space state.
	if err := gang.SetParticles(ic.Plummer(32, 44)); err != nil {
		t.Fatal(err)
	}
	if err := sim.TransferState(nil, src, gang); err != nil {
		t.Fatal(err)
	}
	stats := sim.TransferStats()
	if stats.Hairpin != 1 || stats.Direct != 0 {
		t.Fatalf("transfer stats %+v: gang destination must hairpin", stats)
	}
	got, err := gang.GetState(nil, data.AttrPos)
	if err != nil {
		t.Fatal(err)
	}
	for i := range stars.Pos {
		if got.Vec(data.AttrPos)[i] != stars.Pos[i] {
			t.Fatalf("particle %d: transferred position mismatch", i)
		}
	}
	// An evolve after the transfer exercises rank agreement: if a rank
	// had stale state, the halo-exchanged trajectories would be garbage
	// relative to a solo integration of the transferred state.
	if err := gang.EvolveTo(context.Background(), 1.0/64); err != nil {
		t.Fatal(err)
	}

	// Gang as SOURCE may use the direct plane (rank 0 offers).
	if err := sim.TransferState(nil, gang, src); err != nil {
		t.Fatal(err)
	}
	stats = sim.TransferStats()
	if stats.Direct != 1 {
		t.Fatalf("transfer stats %+v: gang source should stream directly", stats)
	}
}
