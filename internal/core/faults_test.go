package core

import (
	"context"
	"errors"
	"testing"
	"time"

	"jungle/internal/amuse/ic"
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
	g.EnableReplacement()
	stars := ic.Plummer(16, 2)
	if err := g.SetParticles(stars); err != nil {
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
