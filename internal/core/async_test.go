package core

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"jungle/internal/amuse/data"
	"jungle/internal/amuse/ic"
	"jungle/internal/core/kernel"
)

// TestPipelinedCallsPreserveOrder: calls issued back to back on one ibis
// channel must reach the worker in issue order, so a batched pull
// pipelined behind a kick observes the kicked velocities — the FIFO
// guarantee the async Pull/Push/Sync idiom depends on.
func TestPipelinedCallsPreserveOrder(t *testing.T) {
	_, sim := labSim(t)
	g, err := sim.NewGravity(context.Background(), WorkerSpec{Resource: "lgm", Channel: ChannelIbis},
		GravityOptions{Kernel: "phigrape-gpu", Eps: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	stars := ic.Plummer(32, 11)
	if err := g.SetParticles(stars); err != nil {
		t.Fatal(err)
	}
	dv := make([]data.Vec3, stars.Len())
	for i := range dv {
		dv[i] = data.Vec3{0.5, 0, 0}
	}
	before := append([]data.Vec3(nil), stars.Vel...)

	out := stars.Clone()
	kick := g.GoKick(dv)
	pull := g.GoPull(out)
	if err := Gather(context.Background(), kick, pull); err != nil {
		t.Fatal(err)
	}
	for i := range before {
		want := before[i].Add(dv[i])
		if out.Vel[i] != want {
			t.Fatalf("particle %d: pipelined pull saw %v, want post-kick %v", i, out.Vel[i], want)
		}
	}
}

// TestGatherJoinsErrors: Gather must wait for every call and join the
// failures, each still unwrapping to its taxonomy sentinel.
func TestGatherJoinsErrors(t *testing.T) {
	_, sim := labSim(t)
	g, err := sim.NewGravity(context.Background(), WorkerSpec{Resource: "lgm", Channel: ChannelIbis},
		GravityOptions{Kernel: "phigrape-gpu", Eps: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	if err := g.SetParticles(ic.Plummer(16, 12)); err != nil {
		t.Fatal(err)
	}
	good := g.Go("stats", kernel.Empty{})
	bad := g.Go("no_such_method", kernel.Empty{})
	err = Gather(context.Background(), good, bad)
	if err == nil {
		t.Fatal("Gather ignored a failed call")
	}
	if !errors.Is(err, ErrNoSuchMethod) || !errors.Is(err, ErrBadMethod) {
		t.Fatalf("joined error %v does not unwrap to ErrBadMethod", err)
	}
	if good.Err() != nil {
		t.Fatalf("good call failed: %v", good.Err())
	}
}

// TestWireErrorCodesOverIbisChannel: worker-side errors must cross the
// full Fig. 5 path (coupler → daemon → IPL → proxy → worker and back)
// as structured codes that unwrap with errors.Is — no string matching.
func TestWireErrorCodesOverIbisChannel(t *testing.T) {
	_, sim := labSim(t)
	g, err := sim.NewGravity(context.Background(), WorkerSpec{Resource: "lgm", Channel: ChannelIbis},
		GravityOptions{Kernel: "phigrape-gpu", Eps: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	if err := g.SetParticles(ic.Plummer(8, 13)); err != nil {
		t.Fatal(err)
	}
	// Unknown method → ErrBadMethod (not a worker fault).
	err = g.Call(nil, "definitely_not_a_method", kernel.Empty{}, nil)
	if !errors.Is(err, ErrBadMethod) {
		t.Fatalf("unknown method: %v, want ErrBadMethod", err)
	}
	if errors.Is(err, ErrWorkerFault) || errors.Is(err, ErrWorkerDied) {
		t.Fatalf("unknown method misclassified: %v", err)
	}
	// Model-level failure (index out of range) → ErrWorkerFault.
	err = g.Call(nil, "set_mass", kernel.SetMassArgs{Index: 999, Mass: 1}, &kernel.Empty{})
	if !errors.Is(err, ErrWorkerFault) {
		t.Fatalf("bad set_mass: %v, want ErrWorkerFault", err)
	}
	// The worker survives both failures.
	if err := g.Call(nil, "stats", kernel.Empty{}, &kernel.StatsResult{}); err != nil {
		t.Fatalf("worker unusable after structured errors: %v", err)
	}
}

// TestCancelAbandonsWaitNotWorker: a context error must abort Call.Wait
// promptly while the RPC stays in flight; the call remains collectable
// and the worker and channel stay fully usable afterwards.
func TestCancelAbandonsWaitNotWorker(t *testing.T) {
	_, sim := labSim(t)
	g, err := sim.NewGravity(context.Background(), WorkerSpec{Resource: "lgm", Channel: ChannelIbis},
		GravityOptions{Kernel: "phigrape-gpu", Eps: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	if err := g.SetParticles(ic.Plummer(256, 14)); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already canceled: the wait must not block at all

	c := g.Go("evolve", kernel.EvolveArgs{T: 1.0 / 16})
	waited := time.Now()
	err = c.Wait(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled Wait = %v, want context.Canceled", err)
	}
	if d := time.Since(waited); d > 2*time.Second {
		t.Fatalf("canceled Wait blocked for %v", d)
	}
	// The call is still in flight (or completing) — collect it for real.
	if err := c.Wait(context.Background()); err != nil {
		t.Fatalf("abandoned call failed: %v", err)
	}
	// Worker and channel are in a recoverable state: new calls work and
	// observe the evolve that kept running through the cancellation.
	var stats kernel.StatsResult
	if err := g.Call(nil, "stats", kernel.Empty{}, &stats); err != nil {
		t.Fatalf("worker unusable after cancellation: %v", err)
	}
	if stats.Time <= 0 {
		t.Fatalf("evolve did not run to completion after abandoned wait (t=%v)", stats.Time)
	}
}

// TestUndecodableResponseFailsChannel: a response frame the codec cannot
// parse must fail the pending call (and the channel) with a transport
// fault instead of silently dropping the frame and leaking the waiter —
// the regression the old readLoop had.
func TestUndecodableResponseFailsChannel(t *testing.T) {
	tb, _ := labSim(t)
	const port = 29999
	l, err := tb.Net.Listen("desktop", port)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() {
		conn, err := l.Accept()
		if err != nil {
			return
		}
		for {
			msg, err := conn.Recv()
			if err != nil {
				return
			}
			// Reply with garbage that is not a response frame.
			conn.Send([]byte{0xde, 0xad, 0xbe, 0xef}, msg.Arrival)
		}
	}()
	conn, err := tb.Net.Dial("desktop", "desktop", port)
	if err != nil {
		t.Fatal(err)
	}
	ch := newConnChannel("test", conn, nil)
	defer ch.close()

	done := make(chan error, 1)
	ch.start(request{ID: reqIDs.Add(1), Method: "ping"}, func(_ response, _ time.Duration, err error) {
		done <- err
	})
	select {
	case err := <-done:
		if !errors.Is(err, ErrTransport) {
			t.Fatalf("pending call failed with %v, want ErrTransport", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("pending call leaked: no completion after undecodable frame")
	}
	// The channel is dead, and says so immediately for new calls.
	second := make(chan error, 1)
	ch.start(request{ID: reqIDs.Add(1), Method: "ping"}, func(_ response, _ time.Duration, err error) {
		second <- err
	})
	select {
	case err := <-second:
		if err == nil {
			t.Fatal("dead channel accepted a new call")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("dead channel did not fail a new call")
	}
}

// TestConcurrentCallsOneChannel hammers a single ibis channel from many
// goroutines — the -race run over this test is the concurrency gate for
// the pending-map, clock and sticky-error paths.
func TestConcurrentCallsOneChannel(t *testing.T) {
	_, sim := labSim(t)
	g, err := sim.NewGravity(context.Background(), WorkerSpec{Resource: "lgm", Channel: ChannelIbis},
		GravityOptions{Kernel: "phigrape-gpu", Eps: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	stars := ic.Plummer(64, 15)
	if err := g.SetParticles(stars); err != nil {
		t.Fatal(err)
	}
	const workers = 8
	const callsPer = 16
	var wg sync.WaitGroup
	errCh := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < callsPer; i++ {
				switch i % 3 {
				case 0:
					var out kernel.StatsResult
					if err := g.Call(nil, "stats", kernel.Empty{}, &out); err != nil {
						errCh <- err
						return
					}
				case 1:
					if _, err := g.GetState(nil, data.AttrPos); err != nil {
						errCh <- err
						return
					}
				default:
					if err := Gather(nil, g.Go("stats", kernel.Empty{})); err != nil {
						errCh <- err
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	if err := g.Err(); err != nil {
		t.Fatal(err)
	}
}

// TestReplacementPreservesPipelineOrder: when pipelined calls die with
// the worker, the single replacement must re-issue them in original
// issue order — a pull retried ahead of the kick it was queued behind
// would silently observe pre-kick state.
func TestReplacementPreservesPipelineOrder(t *testing.T) {
	tb, sim := labSim(t)
	g, err := sim.NewGravity(context.Background(), WorkerSpec{Channel: ChannelIbis},
		GravityOptions{Kernel: "phigrape-cpu", Eps: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	stars := ic.Plummer(16, 22)
	if err := g.SetParticles(stars); err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Checkpoint(context.Background()); err != nil {
		t.Fatal(err)
	}
	died := make(chan int, 1)
	tb.Daemon.OnWorkerDied = func(id int) { died <- id }
	tb.Daemon.KillWorker(g.workers[0])
	select {
	case <-died:
	case <-time.After(10 * time.Second):
		t.Fatal("death not detected")
	}
	// Pipeline a kick and a pull against the dead worker: both fail with
	// CodeWorkerDied, both retry on the one replacement, in issue order.
	dv := make([]data.Vec3, stars.Len())
	for i := range dv {
		dv[i] = data.Vec3{0.25, 0, 0}
	}
	out := stars.Clone()
	kick := g.GoKick(dv)
	pull := g.GoPull(out)
	if err := Gather(context.Background(), kick, pull); err != nil {
		t.Fatalf("pipelined retry: %v", err)
	}
	// The replacement restored the checkpointed upload, so the pull must
	// see exactly those velocities plus the kick.
	for i := range dv {
		want := stars.Vel[i].Add(dv[i])
		if out.Vel[i] != want {
			t.Fatalf("particle %d: retried pull saw %v, want post-kick %v (pre-kick %v)",
				i, out.Vel[i], want, stars.Vel[i])
		}
	}
}

// TestStopShutsDownConcurrently: Stop must tear all models down in
// parallel and leave the daemon reusable for the next simulation.
func TestStopShutsDownConcurrently(t *testing.T) {
	tb, sim := labSim(t)
	for _, r := range []string{"lgm", "das4-uva", "das4-tud"} {
		g, err := sim.NewGravity(context.Background(), WorkerSpec{Resource: r, Channel: ChannelIbis},
			GravityOptions{Eps: 0.01})
		if err != nil {
			t.Fatal(err)
		}
		if err := g.SetParticles(ic.Plummer(8, 16)); err != nil {
			t.Fatal(err)
		}
	}
	if err := sim.Stop(); err != nil {
		t.Fatalf("concurrent stop: %v", err)
	}
	// The daemon survives: a fresh session can start a worker.
	sim2 := NewSimulation(context.Background(), tb.Daemon, nil)
	defer sim2.Stop()
	g, err := sim2.NewGravity(context.Background(), WorkerSpec{Resource: "lgm", Channel: ChannelIbis},
		GravityOptions{Eps: 0.01})
	if err != nil {
		t.Fatalf("daemon unusable after Stop: %v", err)
	}
	if err := g.SetParticles(ic.Plummer(8, 17)); err != nil {
		t.Fatal(err)
	}
}
