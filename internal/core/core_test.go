package core

import (
	"context"
	"errors"
	"math"
	"testing"
	"time"

	"jungle/internal/amuse/data"
	"jungle/internal/amuse/ic"
	"jungle/internal/amuse/units"
	"jungle/internal/core/kernel"
	"jungle/internal/phys/bridge"

	// Kernel service adapters register themselves; core holds no kinds.
	_ "jungle/internal/kernels"
)

func labSim(t *testing.T) (*Testbed, *Simulation) {
	t.Helper()
	tb, err := NewLabTestbed()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(tb.Close)
	conv, err := units.NewConverter(units.New(1000, units.MSun), units.New(1, units.Parsec))
	if err != nil {
		t.Fatal(err)
	}
	sim := NewSimulation(context.Background(), tb.Daemon, conv)
	t.Cleanup(func() { sim.Stop() })
	return tb, sim
}

func TestLocalChannelGravity(t *testing.T) {
	_, sim := labSim(t)
	g, err := sim.NewGravity(context.Background(), WorkerSpec{Resource: "desktop", Channel: ChannelMPI},
		GravityOptions{Eps: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	stars := ic.Plummer(64, 1)
	if err := g.SetParticles(stars); err != nil {
		t.Fatal(err)
	}
	if g.N() != 64 {
		t.Fatalf("N = %d", g.N())
	}
	k0, u0, err := g.Energy(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if err := g.EvolveTo(context.Background(), 0.125); err != nil {
		t.Fatal(err)
	}
	k1, u1, err := g.Energy(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rel := math.Abs((k1 + u1 - k0 - u0) / (k0 + u0)); rel > 1e-4 {
		t.Fatalf("energy drift %v", rel)
	}
	if sim.Elapsed() <= 0 {
		t.Fatal("virtual clock did not advance")
	}
}

func TestIbisChannelRemoteWorker(t *testing.T) {
	tb, sim := labSim(t)
	g, err := sim.NewGravity(context.Background(), WorkerSpec{Resource: "lgm", Channel: ChannelIbis},
		GravityOptions{Kernel: "phigrape-gpu", Eps: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	stars := ic.Plummer(64, 2)
	if err := g.SetParticles(stars); err != nil {
		t.Fatal(err)
	}
	if err := g.EvolveTo(context.Background(), 1.0/64); err != nil {
		t.Fatal(err)
	}
	out := stars.Clone()
	if err := g.Sync(context.Background(), out); err != nil {
		t.Fatal(err)
	}
	moved := false
	for i := range out.Pos {
		if out.Pos[i] != stars.Pos[i] {
			moved = true
			break
		}
	}
	if !moved {
		t.Fatal("particles did not move")
	}
	// The wide-area path must show IPL traffic between desktop and the LGM
	// route, and loopback traffic at both ends (Fig. 5 / Fig. 11).
	classes := tb.Recorder.TotalByClass()
	if classes["ipl"] == 0 {
		t.Fatalf("no IPL traffic recorded: %v", classes)
	}
	if classes["loopback"] == 0 {
		t.Fatalf("no loopback traffic recorded: %v", classes)
	}
	// Remote round trips accumulate WAN latency on the virtual clock.
	if sim.Elapsed() < 10*time.Millisecond {
		t.Fatalf("elapsed %v suspiciously low for remote worker", sim.Elapsed())
	}
}

func TestSocketsChannelWorker(t *testing.T) {
	_, sim := labSim(t)
	g, err := sim.NewGravity(context.Background(), WorkerSpec{Resource: "desktop", Channel: ChannelSockets},
		GravityOptions{Eps: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	stars := ic.Plummer(32, 3)
	if err := g.SetParticles(stars); err != nil {
		t.Fatal(err)
	}
	if err := g.EvolveTo(context.Background(), 1.0/64); err != nil {
		t.Fatal(err)
	}
	if err := g.Err(); err != nil {
		t.Fatal(err)
	}
}

// TestChannelsProduceIdenticalPhysics: the channel (mpi vs ibis) and the
// kernel's device must not change results — Multi-Kernel plus
// location-transparency in one test.
func TestChannelsProduceIdenticalPhysics(t *testing.T) {
	_, sim := labSim(t)
	stars := ic.Plummer(100, 4)

	run := func(spec WorkerSpec, kernel string) *data.Particles {
		g, err := sim.NewGravity(context.Background(), spec, GravityOptions{Kernel: kernel, Eps: 0.01})
		if err != nil {
			t.Fatal(err)
		}
		if err := g.SetParticles(stars); err != nil {
			t.Fatal(err)
		}
		if err := g.EvolveTo(context.Background(), 1.0/32); err != nil {
			t.Fatal(err)
		}
		out := stars.Clone()
		if err := g.Sync(context.Background(), out); err != nil {
			t.Fatal(err)
		}
		return out
	}

	local := run(WorkerSpec{Resource: "desktop", Channel: ChannelMPI}, "phigrape-cpu")
	remote := run(WorkerSpec{Resource: "lgm", Channel: ChannelIbis}, "phigrape-gpu")
	for i := range local.Pos {
		for d := 0; d < 3; d++ {
			if math.Float64bits(local.Pos[i][d]) != math.Float64bits(remote.Pos[i][d]) {
				t.Fatalf("particle %d diverged between local-cpu and remote-gpu", i)
			}
		}
	}
}

func TestStellarWorkerEvents(t *testing.T) {
	_, sim := labSim(t)
	st, err := sim.NewStellar(context.Background(), WorkerSpec{Resource: "das4-uva", Channel: ChannelIbis},
		[]float64{25, 1, 0.5}, 10 /* Myr per time unit */, 0.001)
	if err != nil {
		t.Fatal(err)
	}
	// 25 MSun lives ~3.2 Myr; at 10 Myr/unit, t=1 covers it.
	events, err := st.EvolveTo(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	sawSN := false
	for _, ev := range events {
		if ev.SN && ev.Index == 0 {
			sawSN = true
		}
	}
	if !sawSN {
		t.Fatalf("no supernova for the 25 MSun star: %+v", events)
	}
}

func TestFieldWorker(t *testing.T) {
	_, sim := labSim(t)
	f, err := sim.NewField(context.Background(), WorkerSpec{Resource: "das4-tud", Channel: ChannelIbis},
		FieldOptions{Kernel: "octgrav", Eps: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	src := ic.Plummer(200, 5)
	targets := src.Pos[:10]
	acc, pot, _ := f.FieldAt(context.Background(), src.Mass, src.Pos, targets, 0.05)
	if err := f.Err(); err != nil {
		t.Fatal(err)
	}
	if len(acc) != 10 || len(pot) != 10 {
		t.Fatalf("field sizes: %d, %d", len(acc), len(pot))
	}
	nonzero := false
	for i := range acc {
		if acc[i].Norm() > 0 {
			nonzero = true
		}
		if pot[i] >= 0 {
			t.Fatalf("potential %d = %v, want negative", i, pot[i])
		}
	}
	if !nonzero {
		t.Fatal("all accelerations zero")
	}
}

// TestDistributedBridgeMatchesLocal runs the Fig. 7 integrator once with
// all models in-process and once with every model on a different remote
// resource (the jungle). Physics must be bitwise identical; only the
// virtual clock differs.
func TestDistributedBridgeMatchesLocal(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	stars, gas, err := ic.EmbeddedCluster(ic.ClusterSpec{Stars: 30, Gas: 120, GasFrac: 0.5, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}

	run := func(t *testing.T, gravSpec, hydroSpec, fieldSpec WorkerSpec, gravKernel, fieldKernel string) (*data.Particles, time.Duration) {
		_, sim := labSim(t)
		g, err := sim.NewGravity(context.Background(), gravSpec, GravityOptions{Kernel: gravKernel, Eps: 0.01})
		if err != nil {
			t.Fatal(err)
		}
		if err := g.SetParticles(stars); err != nil {
			t.Fatal(err)
		}
		h, err := sim.NewHydro(context.Background(), hydroSpec, HydroOptions{SelfGravity: true, EpsGrav: 0.01})
		if err != nil {
			t.Fatal(err)
		}
		if err := h.SetParticles(gas); err != nil {
			t.Fatal(err)
		}
		f, err := sim.NewField(context.Background(), fieldSpec, FieldOptions{Kernel: fieldKernel, Eps: 0.05})
		if err != nil {
			t.Fatal(err)
		}
		br, err := bridge.New(bridge.Config{
			Stars: g, Gas: h, Coupler: f, DT: 1.0 / 32, Eps: 0.05,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := br.EvolveTo(context.Background(), 2.0/32); err != nil {
			t.Fatal(err)
		}
		out := stars.Clone()
		if err := g.Sync(context.Background(), out); err != nil {
			t.Fatal(err)
		}
		return out, sim.Elapsed()
	}

	localOut, localTime := run(t,
		WorkerSpec{Resource: "desktop", Channel: ChannelMPI},
		WorkerSpec{Resource: "desktop", Channel: ChannelMPI},
		WorkerSpec{Resource: "desktop", Channel: ChannelMPI},
		"phigrape-cpu", "fi")
	jungleOut, jungleTime := run(t,
		WorkerSpec{Resource: "lgm", Channel: ChannelIbis},
		WorkerSpec{Resource: "das4-vu", Channel: ChannelIbis},
		WorkerSpec{Resource: "das4-tud", Channel: ChannelIbis},
		"phigrape-gpu", "octgrav")

	for i := range localOut.Pos {
		for d := 0; d < 3; d++ {
			if math.Float64bits(localOut.Pos[i][d]) != math.Float64bits(jungleOut.Pos[i][d]) {
				t.Fatalf("particle %d diverged between local and jungle runs", i)
			}
		}
	}
	if localTime == jungleTime {
		t.Fatal("virtual times identical; deployment not modeled")
	}
}

func TestWorkerDeathDetected(t *testing.T) {
	tb, sim := labSim(t)
	died := make(chan int, 1)
	tb.Daemon.OnWorkerDied = func(id int) { died <- id }
	g, err := sim.NewGravity(context.Background(), WorkerSpec{Resource: "lgm", Channel: ChannelIbis},
		GravityOptions{Kernel: "phigrape-gpu", Eps: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	if err := g.SetParticles(ic.Plummer(16, 6)); err != nil {
		t.Fatal(err)
	}
	tb.Daemon.KillWorker(g.workers[0])
	select {
	case <-died:
	case <-time.After(10 * time.Second):
		t.Fatal("death not detected")
	}
	err = g.EvolveTo(context.Background(), 0.5)
	if err == nil {
		t.Fatal("call to dead worker succeeded")
	}
	if !errors.Is(err, ErrWorkerDied) {
		t.Fatalf("err = %v, want ErrWorkerDied", err)
	}
	// The paper's prototype behaviour: the fault is surfaced, the
	// simulation errors out (no silent hang).
	if g.Err() == nil {
		t.Fatal("sticky error not recorded")
	}
}

func TestWorkerReplacement(t *testing.T) {
	tb, sim := labSim(t)
	g, err := sim.NewGravity(context.Background(), WorkerSpec{Channel: ChannelIbis}, // auto resource
		GravityOptions{Kernel: "phigrape-cpu", Eps: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	stars := ic.Plummer(32, 7)
	if err := g.SetParticles(stars); err != nil {
		t.Fatal(err)
	}
	if err := g.EvolveTo(context.Background(), 1.0/64); err != nil {
		t.Fatal(err)
	}
	// Checkpoint after the last write, read the state back, kill the worker.
	if _, err := sim.Checkpoint(context.Background()); err != nil {
		t.Fatal(err)
	}
	snap := stars.Clone()
	if err := g.Sync(context.Background(), snap); err != nil {
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
	// §5 future work, implemented: the next call transparently restarts
	// the worker from the checkpoint.
	var out kernel.VecResult
	if err := g.Call(context.Background(), "get_positions", kernel.Empty{}, &out); err != nil {
		t.Fatalf("replacement failed: %v", err)
	}
	if len(out.V) != snap.Len() {
		t.Fatalf("replacement state: %d particles, want %d", len(out.V), snap.Len())
	}
	for i := range out.V {
		if out.V[i] != snap.Pos[i] {
			t.Fatalf("replacement lost state at particle %d", i)
		}
	}
	if err := g.EvolveTo(context.Background(), 2.0/64); err != nil {
		t.Fatal(err)
	}
}

func TestSelectResourcePolicy(t *testing.T) {
	tb, _ := labSim(t)
	d := tb.Deployment
	// GPU kernel: best GPU wins (GTX480 at TUD > C2050 at LGM > 9600GT).
	r, err := SelectResource(d, WorkerSpec{Kind: KindField, Kernel: "octgrav"})
	if err != nil || r != "das4-tud" {
		t.Fatalf("octgrav -> %q, %v", r, err)
	}
	// 8-node MPI worker: only das4-vu has 8 nodes.
	r, err = SelectResource(d, WorkerSpec{Kind: KindHydro, Nodes: 8})
	if err != nil || r != "das4-vu" {
		t.Fatalf("hydro x8 -> %q, %v", r, err)
	}
	// CPU-only kernel: biggest aggregate CPU (das4-vu).
	r, err = SelectResource(d, WorkerSpec{Kind: KindGravity, Kernel: "phigrape-cpu"})
	if err != nil || r != "das4-vu" {
		t.Fatalf("phigrape-cpu -> %q, %v", r, err)
	}
	// Impossible: 100 nodes.
	if _, err := SelectResource(d, WorkerSpec{Kind: KindHydro, Nodes: 100}); !errors.Is(err, ErrNoResource) {
		t.Fatalf("err = %v", err)
	}
}

func TestHydroMPIWorkerOverIbis(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	tb, sim := labSim(t)
	_, gas, err := ic.EmbeddedCluster(ic.ClusterSpec{Stars: 1, Gas: 200, GasFrac: 0.9, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	h, err := sim.NewHydro(context.Background(), WorkerSpec{Resource: "das4-vu", Nodes: 4, Channel: ChannelIbis},
		HydroOptions{SelfGravity: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := h.SetParticles(gas); err != nil {
		t.Fatal(err)
	}
	if err := h.EvolveTo(context.Background(), 0.01); err != nil {
		t.Fatal(err)
	}
	// The worker's intra-cluster traffic must be recorded as MPI —
	// Fig. 11's orange lines.
	if tb.Recorder.TotalByClass()["mpi"] == 0 {
		t.Fatal("no MPI traffic recorded for multi-node hydro worker")
	}
}

func TestUnitCheckedTime(t *testing.T) {
	_, sim := labSim(t)
	tm, err := sim.TimeQuantity(units.New(1, units.Myr))
	if err != nil {
		t.Fatal(err)
	}
	if tm <= 0 {
		t.Fatalf("1 Myr = %v N-body", tm)
	}
	if _, err := sim.TimeQuantity(units.New(1, units.Kg)); err == nil {
		t.Fatal("mass accepted as time")
	}
}

func TestDaemonRejectsUnknownWorkerID(t *testing.T) {
	tb, _ := labSim(t)
	local := tb.Deployment.LocalHost()
	conn, err := tb.Net.Dial(local, local, DaemonPort)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	req := request{ID: reqIDs.Add(1), Worker: 999, Method: "evolve", Args: kernel.Encode(kernel.EvolveArgs{})}
	if _, err := conn.Send(kernel.AppendRequest(nil, &req), 0); err != nil {
		t.Fatal(err)
	}
	msg, err := conn.Recv()
	if err != nil {
		t.Fatal(err)
	}
	var resp response
	if err := kernel.UnmarshalResponse(msg.Data, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Err == "" {
		t.Fatal("daemon accepted request for unknown worker")
	}
}
