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

// racingTestbed is a deployment built to make placement races observable:
// cluster "farm" (3 nodes, best CPU score) fits exactly one K=3 gang, and
// cluster "annex" (3 nodes, slightly slower) is the spare a fair placer
// must spill onto.
func racingTestbed(t *testing.T) *Daemon {
	t.Helper()
	n := vnet.New()
	if _, err := n.AddHost("client", "hq", vnet.Open); err != nil {
		t.Fatal(err)
	}
	clusters := make([]*vnet.Cluster, 2)
	for i, name := range []string{"farm", "annex"} {
		c, err := n.AddCluster(vnet.ClusterSpec{
			Name: name, Site: name, Nodes: 3,
			FrontendPolicy: vnet.SSHOnly, NodePolicy: vnet.OutboundOnly,
			InternalLatency: lanLat, InternalBandwidth: tenG,
		})
		if err != nil {
			t.Fatal(err)
		}
		clusters[i] = c
		if err := n.AddLink("client", c.Frontend, lanLat, gbE); err != nil {
			t.Fatal(err)
		}
	}
	if err := n.AddLink(clusters[0].Frontend, clusters[1].Frontend, metroLat, tenG); err != nil {
		t.Fatal(err)
	}
	dep, err := deploy.New(n, "client")
	if err != nil {
		t.Fatal(err)
	}
	if err := dep.AddResource(deploy.Resource{
		Name: "farm", Middleware: "sge", Frontend: clusters[0].Frontend,
		Nodes: clusters[0].NodeName, CPU: das4Node(),
	}); err != nil {
		t.Fatal(err)
	}
	if err := dep.AddResource(deploy.Resource{
		Name: "annex", Middleware: "sge", Frontend: clusters[1].Frontend,
		Nodes: clusters[1].NodeName,
		CPU:   &vtime.Device{Name: "annex-xeon", Kind: vtime.CPU, Gflops: 8, Cores: 8},
	}); err != nil {
		t.Fatal(err)
	}
	d, err := NewDaemon(dep, "amuse")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Close)
	return d
}

// TestSelectResourceRacingGangs is the fairness regression: two sessions'
// K=3 gangs race for a cluster that fits only one of them. The first
// session's gang takes the preferred cluster; the second session's fit
// check must see those committed nodes and spill to the spare — before
// the capacity ledger, both gangs were placed onto "farm" and the loser's
// batch jobs queued behind the winner's forever.
func TestSelectResourceRacingGangs(t *testing.T) {
	d := racingTestbed(t)
	ctx := context.Background()
	gangSpec := WorkerSpec{Channel: ChannelIbis, Workers: 3}

	simA := NewSimulation(ctx, d, nil)
	t.Cleanup(func() { simA.Stop() })
	simA.SetSession("tenant-a")
	gangA, err := simA.NewGravity(ctx, gangSpec, GravityOptions{Eps: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	if r := gangA.resource(); r != "farm" {
		t.Fatalf("first gang placed on %q, want the preferred cluster farm", r)
	}

	// Second tenant, same open spec: farm has zero free nodes for OTHER
	// sessions, so the gang must land on the spare.
	simB := NewSimulation(ctx, d, nil)
	t.Cleanup(func() { simB.Stop() })
	simB.SetSession("tenant-b")
	gangB, err := simB.NewGravity(ctx, gangSpec, GravityOptions{Eps: 0.01})
	if err != nil {
		t.Fatalf("second gang: %v", err)
	}
	if r := gangB.resource(); r != "annex" {
		t.Fatalf("second gang placed on %q, want the spare cluster annex", r)
	}

	// A session's OWN holdings count too: its models run at the same time,
	// so tenant A's next solo worker fits neither cluster — a structured
	// ErrNoResource, not a job queued on farm until ReadyTimeout — and a
	// third tenant has nowhere to put a gang either.
	if name, err := SelectResource(d.deployment, WorkerSpec{Channel: ChannelIbis, Session: "tenant-a"}); !errors.Is(err, ErrNoResource) {
		t.Fatalf("same-session solo placement = %q, %v; want ErrNoResource", name, err)
	}
	if _, err := SelectResource(d.deployment, WorkerSpec{Channel: ChannelIbis, Workers: 3, Session: "tenant-c"}); !errors.Is(err, ErrNoResource) {
		t.Fatalf("third tenant's gang on a full jungle: %v, want ErrNoResource", err)
	}
}

// TestReplacementLandsWhereItCanStart: a dead solo worker's replacement
// re-selects its resource, and the nodes its own session holds count
// against a cluster. One session runs a K=3 gang on farm and a solo model
// on annex; killed after a checkpoint, the solo worker comes back on annex
// — not on farm, the better-scoring cluster, where its job would queue
// behind the session's own gang until ReadyTimeout.
func TestReplacementLandsWhereItCanStart(t *testing.T) {
	d := racingTestbed(t)
	d.ReadyTimeout = 3 * time.Second // a replacement queued on farm fails in 3 s, not 30
	ctx := context.Background()
	sim := NewSimulation(ctx, d, nil)
	t.Cleanup(func() { sim.Stop() })
	sim.SetSession("tenant-a")
	if _, err := sim.NewGravity(ctx, WorkerSpec{Resource: "farm", Channel: ChannelIbis, Workers: 3}, GravityOptions{Eps: 0.01}); err != nil {
		t.Fatal(err)
	}
	solo, err := sim.NewGravity(ctx, WorkerSpec{Resource: "annex", Channel: ChannelIbis}, GravityOptions{Eps: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	if err := solo.SetParticles(ic.Plummer(16, 3)); err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Checkpoint(ctx); err != nil {
		t.Fatal(err)
	}
	killWorker(t, d, solo.WorkerIDs()[0])
	if _, err := solo.GetState(ctx); err != nil {
		t.Fatalf("call after the death: %v", err)
	}
	if r := solo.resource(); r != "annex" {
		t.Fatalf("replacement placed on %q, want annex", r)
	}
}

// TestSessionWorkerNamespaces: session-labelled simulations draw worker
// ids from disjoint per-session blocks (ports derive from ids, so the
// blocks keep peer planes and pools namespaced), and the daemon can
// enumerate a session's live workers.
func TestSessionWorkerNamespaces(t *testing.T) {
	d := racingTestbed(t)
	ctx := context.Background()

	sims := make(map[string]*Simulation)
	for _, id := range []string{"red", "blue"} {
		sim := NewSimulation(ctx, d, nil)
		t.Cleanup(func() { sim.Stop() })
		sim.SetSession(id)
		sims[id] = sim
		if _, err := sim.NewGravity(ctx, WorkerSpec{Channel: ChannelIbis}, GravityOptions{Eps: 0.01}); err != nil {
			t.Fatal(err)
		}
	}
	red, blue := d.SessionWorkers("red"), d.SessionWorkers("blue")
	if len(red) != 1 || len(blue) != 1 {
		t.Fatalf("session workers: red=%v blue=%v, want one each", red, blue)
	}
	if red[0]/sessionIDBlock == 0 || blue[0]/sessionIDBlock == 0 {
		t.Fatalf("session worker ids %d, %d not in session blocks", red[0], blue[0])
	}
	if red[0]/sessionIDBlock == blue[0]/sessionIDBlock {
		t.Fatalf("sessions share id block: red=%d blue=%d", red[0], blue[0])
	}

	// Stopping a session's simulation empties its worker set but leaves
	// the other session running.
	if err := sims["red"].Stop(); err != nil {
		t.Fatal(err)
	}
	if left := d.SessionWorkers("red"); len(left) != 0 {
		t.Fatalf("red workers after stop: %v", left)
	}
	if left := d.SessionWorkers("blue"); len(left) != 1 {
		t.Fatalf("blue workers after red stopped: %v", left)
	}
}

// TestSessionGangSampledOnce: a session's gang records each evolve's load
// once, on the plane, under the session's label — not once bare and once
// more under the session.
func TestSessionGangSampledOnce(t *testing.T) {
	tb, sim := elasticSim(t)
	sim.SetSession("tenant-a")
	g := elasticGravity(t, sim, tb.Mixed, 2, ic.Plummer(64, 5))
	evolveLegs(t, g, 1.0/512)
	rows := tb.Recorder.GangTable()
	want := "tenant-a/gravity/" + tb.Mixed
	if len(rows) != 1 || rows[0].Gang != want || len(rows[0].Stats.Samples) != 1 {
		t.Fatalf("gang table %+v, want one row %q with one sample", rows, want)
	}
}
