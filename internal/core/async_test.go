package core

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"jungle/internal/amuse/data"
	"jungle/internal/amuse/ic"
	"jungle/internal/core/kernel"
	"jungle/internal/ipl"
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
	if err := good.Wait(context.Background()); err != nil {
		t.Fatalf("good call failed: %v", err)
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

// TestUndecodableResponseIsAnswered: a response frame the daemon cannot
// parse ends its call in ErrTransport naming the parse error, instead of
// leaving the call waiting for a response that will never decode; a frame
// with no ID to answer fails the worker, and with it every call on it.
func TestUndecodableResponseIsAnswered(t *testing.T) {
	_, sim := labSim(t)
	g, err := sim.NewGravity(context.Background(), WorkerSpec{Channel: ChannelIbis}, GravityOptions{Eps: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	id := g.WorkerIDs()[0]
	wh := sim.daemon.worker(id)
	ch := sim.daemon.ibisChannel(nil)
	defer ch.close()
	// pend registers a call as relayed to the worker and returns its ID and
	// where its outcome, as the coupler reads it, lands.
	pend := func() (uint64, chan error) {
		reqID, out := reqIDs.Add(1), make(chan error, 1)
		ch.mu.Lock()
		ch.pending[reqID] = pendingCall{done: completion(func(resp response, _ time.Duration, err error) {
			if err == nil {
				err = kernel.ResponseError(&resp)
			}
			out <- err
		})}
		ch.mu.Unlock()
		wh.mu.Lock()
		wh.pending[reqID] = ch
		wh.mu.Unlock()
		return reqID, out
	}
	cutID, cutOut := pend()
	frame := kernel.FrameResponse(cutID, kernel.EncodeReply(kernel.StatsResult{Time: 1}), 0, nil)
	sim.daemon.onResponse(wh, ipl.ReadMessage{Data: frame[:len(frame)-2]})
	select {
	case err := <-cutOut:
		if !errors.Is(err, ErrTransport) || !strings.Contains(err.Error(), "result") {
			t.Fatalf("a cut response ended its call with %v, want ErrTransport naming the result", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("a cut response left its call waiting")
	}
	_, out := pend()
	died := make(chan int, 1)
	sim.daemon.OnWorkerDied = func(id int) { died <- id }
	sim.daemon.onResponse(wh, ipl.ReadMessage{Data: []byte{0xde, 0xad}})
	mustEndWith(t, "a call on the worker", out, ErrWorkerDied)
	select {
	case got := <-died:
		if got != id {
			t.Fatalf("worker %d reported dead, want %d", got, id)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("a response with no ID left the worker alive")
	}
}

// TestUndecodableRequestIsAnswered: a request frame cut inside its method
// name, written straight onto an ibis worker's request port, is answered for
// its ID as a transport fault naming the parse error — the proxy does not
// skip it and leave its caller waiting. A frame with no ID to answer ends
// the worker instead. The daemon and the mpi and sockets workers are handed
// their requests in line and parse none.
func TestUndecodableRequestIsAnswered(t *testing.T) {
	_, sim := labSim(t)
	req := request{ID: reqIDs.Add(1), Method: "kick"}
	cut := kernel.AppendRequest(nil, &req)[:1+8+8+8+2+2]
	answered := func(t *testing.T, recv func() (response, error)) {
		t.Helper()
		got := make(chan error, 1)
		go func() {
			resp, err := recv()
			if err == nil && resp.ID != req.ID {
				err = fmt.Errorf("answered ID %d, want %d", resp.ID, req.ID)
			} else if err == nil {
				if err = kernel.ResponseError(&resp); errors.Is(err, ErrTransport) && strings.Contains(err.Error(), "method") {
					err = nil
				} else {
					err = fmt.Errorf("answered with %v, want ErrTransport naming the method", err)
				}
			}
			got <- err
		}()
		select {
		case err := <-got:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("no answer to an undecodable request")
		}
	}

	t.Run("proxy", func(t *testing.T) {
		g, err := sim.NewGravity(context.Background(), WorkerSpec{Channel: ChannelIbis}, GravityOptions{Eps: 0.01})
		if err != nil {
			t.Fatal(err)
		}
		// The cut frame goes straight onto the worker's request port, with
		// a channel of its own waiting for the answer.
		ch := sim.daemon.ibisChannel(nil)
		defer ch.close()
		outcome := make(chan response, 1)
		ch.pending[req.ID] = pendingCall{done: completion(func(resp response, _ time.Duration, err error) {
			if err != nil {
				resp = response{ID: req.ID, Err: err.Error()}
			}
			outcome <- resp
		})}
		wh := sim.daemon.worker(g.WorkerIDs()[0])
		wh.mu.Lock()
		wh.pending[req.ID] = ch
		sp := wh.sendPort
		wh.mu.Unlock()
		if err := sp.Write(slices.Clone(cut), 0); err != nil {
			t.Fatal(err)
		}
		answered(t, func() (response, error) { return <-outcome, nil })
		// The worker still serves, and a frame with no ID ends it as a
		// crash would.
		if err := g.Kick(context.Background(), make([]data.Vec3, 0)); err != nil && !errors.Is(err, ErrWorkerFault) {
			t.Fatal(err)
		}
		died := make(chan int, 1)
		sim.daemon.OnWorkerDied = func(id int) { died <- id }
		if err := sp.Write([]byte{0xde, 0xad}, 0); err != nil {
			t.Fatal(err)
		}
		select {
		case <-time.After(10 * time.Second):
			t.Fatal("the proxy survived a frame with no ID")
		case <-died:
		}
	})
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
