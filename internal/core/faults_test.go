package core

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"jungle/internal/amuse/ic"
	"jungle/internal/core/kernel"
	"jungle/internal/deploy"
	"jungle/internal/vnet"
	"jungle/internal/vtime"
)

// TestHostCrashKillsWorker injects a vnet-level fault: the host running a
// remote worker goes down (not a scheduler cancel — the machine vanishes).
// The registry must observe the death and the next call must fail — the
// paper's §5 fault behaviour, from the hardware side.
func TestHostCrashKillsWorker(t *testing.T) {
	tb, sim := labSim(t)
	died := make(chan int, 1)
	tb.Daemon.OnWorkerDied = func(id int) { died <- id }

	g, err := sim.NewGravity(context.Background(), WorkerSpec{Resource: "lgm", Channel: ChannelIbis},
		GravityOptions{Kernel: "phigrape-gpu", Eps: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	if err := g.SetParticles(ic.Plummer(16, 1)); err != nil {
		t.Fatal(err)
	}

	// The machine disappears: all its connections break.
	if err := tb.Net.CrashHost("lgm"); err != nil {
		t.Fatal(err)
	}
	select {
	case <-died:
	case <-time.After(10 * time.Second):
		t.Fatal("host crash not detected")
	}
	if err := g.EvolveTo(context.Background(), 0.5); !errors.Is(err, ErrWorkerDied) {
		t.Fatalf("err = %v, want ErrWorkerDied", err)
	}
}

// TestReplacementAfterHostCrash combines the fault with the §5 future-work
// replacement: the substitute must land on a different resource because
// the crashed one has no GPU... (LGM is down; TUD has the remaining GPUs).
func TestReplacementAfterHostCrash(t *testing.T) {
	tb, sim := labSim(t)
	died := make(chan int, 1)
	tb.Daemon.OnWorkerDied = func(id int) { died <- id }

	g, err := sim.NewGravity(context.Background(), WorkerSpec{Resource: "lgm", Channel: ChannelIbis},
		GravityOptions{Kernel: "phigrape-gpu", Eps: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	stars := ic.Plummer(16, 2)
	if err := g.SetParticles(stars); err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Checkpoint(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := tb.Net.CrashHost("lgm"); err != nil {
		t.Fatal(err)
	}
	select {
	case <-died:
	case <-time.After(10 * time.Second):
		t.Fatal("crash not detected")
	}
	// Next call triggers replacement. LGM is down, so selection must pick
	// the TUD GPU nodes.
	if err := g.EvolveTo(context.Background(), 1.0/64); err != nil {
		t.Fatalf("replacement failed: %v", err)
	}
	if g.spec.Resource != "das4-tud" {
		t.Fatalf("replacement resource = %q, want das4-tud", g.spec.Resource)
	}
}

// TestMalleabilityAddResourceMidRun exercises IPL's malleability end to
// end: a new resource (cloud burst) joins the running deployment, a hub is
// started on it automatically, and a new worker lands there while existing
// workers keep running.
func TestMalleabilityAddResourceMidRun(t *testing.T) {
	tb, sim := labSim(t)
	g, err := sim.NewGravity(context.Background(), WorkerSpec{Resource: "lgm", Channel: ChannelIbis},
		GravityOptions{Kernel: "phigrape-gpu", Eps: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	if err := g.SetParticles(ic.Plummer(16, 3)); err != nil {
		t.Fatal(err)
	}
	if err := g.EvolveTo(context.Background(), 1.0/64); err != nil {
		t.Fatal(err)
	}

	// A new cluster appears mid-run (the paper's opportunistic usage).
	cloud, err := tb.Net.AddCluster(vnet.ClusterSpec{
		Name: "cloud", Site: "ec2", Nodes: 4,
		FrontendPolicy: vnet.SSHOnly, NodePolicy: vnet.OutboundOnly,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := tb.Net.AddLink("desktop", cloud.Frontend, 5*time.Millisecond, 1.25e8); err != nil {
		t.Fatal(err)
	}
	if err := tb.Deployment.AddResource(deploy.Resource{
		Name: "cloud", Middleware: "sge", Frontend: cloud.Frontend, Nodes: cloud.NodeName,
		CPU: &vtime.Device{Name: "vcpu", Kind: vtime.CPU, Gflops: 6, Cores: 4},
	}); err != nil {
		t.Fatal(err)
	}

	h, err := sim.NewHydro(context.Background(), WorkerSpec{Resource: "cloud", Nodes: 2, Channel: ChannelIbis},
		HydroOptions{SelfGravity: false})
	if err != nil {
		t.Fatalf("worker on mid-run resource: %v", err)
	}
	_, gas, err := ic.EmbeddedCluster(ic.ClusterSpec{Stars: 1, Gas: 80, GasFrac: 0.9, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := h.SetParticles(gas); err != nil {
		t.Fatal(err)
	}
	if err := h.EvolveTo(context.Background(), 0.005); err != nil {
		t.Fatal(err)
	}
	// The original worker is unaffected.
	if err := g.EvolveTo(context.Background(), 2.0/64); err != nil {
		t.Fatal(err)
	}
}

// TestStopWorkerGraceful: a graceful stop must not fire the died hook (it
// is not a fault).
func TestStopWorkerGraceful(t *testing.T) {
	tb, sim := labSim(t)
	fired := make(chan int, 4)
	tb.Daemon.OnWorkerDied = func(id int) { fired <- id }
	g, err := sim.NewGravity(context.Background(), WorkerSpec{Resource: "lgm", Channel: ChannelIbis},
		GravityOptions{Kernel: "phigrape-gpu", Eps: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	if err := g.SetParticles(ic.Plummer(8, 5)); err != nil {
		t.Fatal(err)
	}
	tb.Daemon.StopWorker(g.workers[0])
	select {
	case id := <-fired:
		t.Fatalf("died hook fired for graceful stop of worker %d", id)
	case <-time.After(300 * time.Millisecond):
	}
}

// TestStopReturnsWhenJobsEnd: Simulation.Stop returns once its workers'
// jobs have ended — a solo ibis worker, a sockets worker and a gang — so
// the job table a script reads after it lists no job still running, at
// GOMAXPROCS 1, 2 and 8.
func TestStopReturnsWhenJobsEnd(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for run := 0; run < 6; run++ {
		procs := []int{1, 2, 8}[run%3]
		runtime.GOMAXPROCS(procs)
		tb, sim := labSim(t)
		ctx := context.Background()
		for _, spec := range []WorkerSpec{
			{Resource: "lgm", Channel: ChannelIbis},
			{Resource: "desktop", Channel: ChannelSockets},
			{Resource: "das4-vu", Channel: ChannelIbis, Workers: 2},
		} {
			g, err := sim.NewGravity(ctx, spec, GravityOptions{Eps: 0.01})
			if err != nil {
				t.Fatal(err)
			}
			if err := g.SetParticles(ic.Plummer(16, 3)); err != nil {
				t.Fatal(err)
			}
			if err := g.EvolveTo(ctx, 1.0/64); err != nil {
				t.Fatal(err)
			}
		}
		if err := sim.Stop(); err != nil {
			t.Fatal(err)
		}
		for _, j := range tb.Deployment.Jobs() {
			t.Errorf("run %d (GOMAXPROCS %d): job #%d %s is still %s after Stop", run, procs, j.ID, j.Desc.Executable, j.State())
		}
	}
}

// TestOccupancyFollowsWorkerJobs: after every way a worker goes away — a
// start whose job ends before it announces, StopWorker, a killed solo
// worker on a batch cluster and its replacement, a gang rank's death and
// its restart in place — each resource's occupied nodes are the nodes of
// the daemon's live workers: nothing leaks, nothing is freed twice. A dead
// worker's nodes count until its job ends, so each check after a kill
// waits for that. At GOMAXPROCS 1, 2 and 8.
func TestOccupancyFollowsWorkerJobs(t *testing.T) {
	const kind = "fails-before-announcing"
	if !kernel.Registered(kind) { // -count > 1 runs this again in one process
		kernel.Register(kind, func(kernel.Config) (kernel.Service, error) {
			return nil, errors.New("no licence for this kernel")
		})
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		tb, sim := labSim(t)
		d, ctx := tb.Daemon, context.Background()
		check := func(after string) {
			t.Helper()
			live := make(map[string]int)
			d.mu.Lock()
			for _, wh := range d.workers {
				wh.mu.Lock()
				if !wh.dead {
					live[wh.spec.Resource] += wh.spec.Nodes
				}
				wh.mu.Unlock()
			}
			d.mu.Unlock()
			for _, r := range tb.Deployment.Resources() {
				if got := tb.Deployment.OccupiedNodes(r); got != live[r] {
					t.Fatalf("GOMAXPROCS %d, after %s: %s has %d node(s) occupied, its live workers %d",
						procs, after, r, got, live[r])
				}
			}
		}
		// kill kills worker id and waits until its job has ended.
		kill := func(id int) {
			t.Helper()
			job := d.worker(id).job
			killWorker(t, d, id)
			<-job.Done()
		}

		if _, err := d.StartWorker(ctx, WorkerSpec{Kind: kind, Resource: "das4-vu", Nodes: 2}); err == nil {
			t.Fatal("a worker whose job ends before announcing started")
		}
		check("a start whose job ended before announcing")

		id, err := d.StartWorker(ctx, WorkerSpec{Kind: KindGravity, Kernel: "phigrape-cpu", Resource: "das4-vu", Nodes: 2})
		if err != nil {
			t.Fatal(err)
		}
		check("a start")
		if err := d.StopWorker(id); err != nil {
			t.Fatal(err)
		}
		check("StopWorker")

		solo, err := sim.NewGravity(ctx, WorkerSpec{Resource: "das4-vu", Nodes: 2, Channel: ChannelIbis}, GravityOptions{Eps: 0.01})
		if err != nil {
			t.Fatal(err)
		}
		gang, err := sim.NewGravity(ctx, WorkerSpec{Resource: "das4-vu", Channel: ChannelIbis, Workers: 2}, GravityOptions{Eps: 0.01})
		if err != nil {
			t.Fatal(err)
		}
		for _, g := range []*Gravity{solo, gang} {
			if err := g.SetParticles(ic.Plummer(16, 3)); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := sim.Checkpoint(ctx); err != nil {
			t.Fatal(err)
		}
		check("a solo worker's and a gang's starts")

		old := solo.WorkerIDs()[0]
		kill(old)
		check("a solo worker's kill")
		if _, err := solo.GetState(ctx); err != nil {
			t.Fatalf("call after the death: %v", err)
		}
		if solo.WorkerIDs()[0] == old {
			t.Fatal("the killed solo worker was not replaced")
		}
		check("its replacement")

		victim := gang.GangWorkers()[1]
		kill(victim)
		check("a gang rank's kill")
		if err := gang.EvolveTo(ctx, 1.0/64); err != nil { // reaches every rank
			t.Fatalf("evolve after the rank death: %v", err)
		}
		if gang.GangWorkers()[1] == victim {
			t.Fatal("the killed rank was not restarted")
		}
		check("the rank's restart in place")

		if err := sim.Stop(); err != nil {
			t.Fatal(err)
		}
		check("Stop")
	}
}
