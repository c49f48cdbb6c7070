package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"jungle/internal/amuse/data"
	"jungle/internal/amuse/ic"
	"jungle/internal/core/kernel"
)

// The lifecycle as a lifecycle (lifecycle.go): one rebuild behind one phase,
// whatever brings a model up. The per-cause behaviour is pinned where it
// always was (conformance, gang, elastic, checkpoint, fault, async suites);
// these tests hold the causes to each other.

// elasticGravity starts a gravity model on the elastic testbed with stars
// uploaded.
func elasticGravity(t *testing.T, sim *Simulation, resource string, k int, stars *data.Particles) *Gravity {
	t.Helper()
	g, err := sim.NewGravity(context.Background(),
		WorkerSpec{Resource: resource, Channel: ChannelIbis, Workers: k}, GravityOptions{Eps: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	if err := g.SetParticles(stars); err != nil {
		t.Fatal(err)
	}
	return g
}

// referenceRun evolves an undisturbed K=2 gang through legs on a testbed of
// its own and returns the final phase-space state (rank count is invisible
// in positions and velocities, so it is every K's reference).
func referenceRun(t *testing.T, stars *data.Particles, legs ...float64) (pos, vel []data.Vec3) {
	t.Helper()
	tb, sim := elasticSim(t)
	ref := elasticGravity(t, sim, tb.Spare, 2, stars)
	evolveLegs(t, ref, legs...)
	pos, vel, _, _ = finalState(t, ref)
	return pos, vel
}

func mustMatchReference(t *testing.T, what string, g *Gravity, wantPos, wantVel []data.Vec3) {
	t.Helper()
	gotPos, gotVel, _, _ := finalState(t, g)
	for i := range wantPos {
		if wantPos[i] != gotPos[i] || wantVel[i] != gotVel[i] {
			t.Fatalf("%s: particle %d diverged from the undisturbed run", what, i)
		}
	}
}

// setHostsUp flips every host of a resource (frontend and nodes).
func setHostsUp(t *testing.T, tb *Testbed, resource string, up bool) {
	t.Helper()
	r, err := tb.Deployment.Resource(resource)
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range append([]string{r.Frontend}, r.Nodes...) {
		if err := tb.Net.SetHostUp(h, up); err != nil {
			t.Fatal(err)
		}
	}
}

// TestRefusedResizeLeavesModelRunning: a shape the resource cannot hold is
// turned down before anything is torn down — at once, not after the jobs
// have queued until ReadyTimeout — and the model runs on as if never asked.
// (It used to be dead for good: EvolveTo → "channel closed".)
func TestRefusedResizeLeavesModelRunning(t *testing.T) {
	stars := ic.Plummer(96, 41)
	const t1, t2 = 1.0 / 64, 1.0 / 16
	wantPos, wantVel := referenceRun(t, stars, t1, t2)

	tb, sim := elasticSim(t)
	g := elasticGravity(t, sim, tb.Spare, 2, stars)
	evolveLegs(t, g, t1)
	if _, err := sim.Checkpoint(context.Background()); err != nil {
		t.Fatal(err)
	}
	before := g.WorkerIDs()

	start := time.Now()
	err := g.Resize(nil, 500)
	if took := time.Since(start); took > time.Second {
		t.Fatalf("refusal took %v (ReadyTimeout is %v): the shape was tried, not checked", took, tb.Daemon.ReadyTimeout)
	}
	if !errors.Is(err, ErrMigration) || !errors.Is(err, ErrNoResource) {
		t.Fatalf("Resize(500) = %v, want ErrMigration wrapping ErrNoResource", err)
	}
	for _, want := range []string{tb.Spare, "500", "4 free"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("refusal %q does not name %q (resource, demand, free nodes)", err, want)
		}
	}
	if after := g.WorkerIDs(); fmt.Sprint(after) != fmt.Sprint(before) {
		t.Fatalf("a refused resize restarted workers: %v -> %v", before, after)
	}
	if g.spec.Workers != 2 || g.currentPhase() != phaseLive {
		t.Fatalf("after the refusal: spec.Workers = %d, phase = %d", g.spec.Workers, g.currentPhase())
	}
	evolveLegs(t, g, t2)
	mustMatchReference(t, "after a refused resize", g, wantPos, wantVel)
	if err := g.Resize(nil, 3); err != nil { // and a shape that fits still goes through
		t.Fatalf("corrective resize: %v", err)
	}
}

// TestFailedRebuildIsRecoverable: a Migrate or Resize whose new shape fails
// to start after the old endpoint is gone brings the previous shape back
// from the snapshot it pulled; if that fails too, the endpoint is down, the
// proxy live, and the next call rebuilds it from that snapshot.
func TestFailedRebuildIsRecoverable(t *testing.T) {
	stars := ic.Plummer(96, 43)
	const t1, t2 = 1.0 / 64, 1.0 / 16
	wantPos, wantVel := referenceRun(t, stars, t1, t2)

	t.Run("migrate falls back to the previous resource", func(t *testing.T) {
		tb, sim := elasticSim(t)
		g := elasticGravity(t, sim, tb.Mixed, 2, stars)
		evolveLegs(t, g, t1)
		before := g.WorkerIDs()
		setHostsUp(t, tb, tb.Spare, false) // fits, but nothing starts there
		err := g.Migrate(nil, tb.Spare)
		if !errors.Is(err, ErrMigration) || !strings.Contains(err.Error(), tb.Spare) {
			t.Fatalf("migrate onto dead hosts = %v, want ErrMigration naming %s", err, tb.Spare)
		}
		after := g.WorkerIDs()
		if g.resource() != tb.Mixed || len(after) != 2 || after[0] == before[0] {
			t.Fatalf("previous shape not brought back: resource %q, workers %v -> %v", g.resource(), before, after)
		}
		evolveLegs(t, g, t2)
		mustMatchReference(t, "after the fallback", g, wantPos, wantVel)
	})

	t.Run("resize falls back to the previous rank count", func(t *testing.T) {
		tb, sim := elasticSim(t)
		st, err := sim.NewStellar(context.Background(),
			WorkerSpec{Resource: tb.Spare, Channel: ChannelIbis}, []float64{5, 9, 12}, 1, 1)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := st.EvolveTo(context.Background(), 1); err != nil {
			t.Fatal(err)
		}
		// Two nodes fit; a stellar service cannot run as a gang rank.
		if err := st.Resize(nil, 2); !errors.Is(err, ErrMigration) || !strings.Contains(err.Error(), "Shardable") {
			t.Fatalf("resize of an unshardable kind = %v, want ErrMigration naming the cause", err)
		}
		if ids := st.WorkerIDs(); len(ids) != 1 || st.spec.Workers > 1 {
			t.Fatalf("previous shape not brought back: workers %v, spec.Workers %d", ids, st.spec.Workers)
		}
		if _, err := st.EvolveTo(context.Background(), 2); err != nil {
			t.Fatalf("model dead after a refused resize: %v", err)
		}
	})

	t.Run("endpoint left down is rebuilt by the next call", func(t *testing.T) {
		tb, sim := elasticSim(t)
		g := elasticGravity(t, sim, tb.Spare, 2, stars)
		evolveLegs(t, g, t1)
		setHostsUp(t, tb, tb.Spare, false) // neither the new shape nor the old one starts
		err := g.Resize(nil, 3)
		if !errors.Is(err, ErrMigration) || !strings.Contains(err.Error(), "previous shape") {
			t.Fatalf("resize on dead hosts = %v, want ErrMigration with both causes", err)
		}
		if ids := g.WorkerIDs(); len(ids) != 0 || g.spec.Workers != 2 || g.currentPhase() != phaseLive {
			t.Fatalf("after the failed rebuild: workers %v, spec.Workers %d, phase %d; want a down endpoint on a live proxy in the old shape",
				ids, g.spec.Workers, g.currentPhase())
		}
		setHostsUp(t, tb, tb.Spare, true)
		evolveLegs(t, g, t2) // rebuilds from the snapshot the resize pulled
		if ids := g.WorkerIDs(); len(ids) != 2 {
			t.Fatalf("rebuilt workers %v, want the K=2 gang back", ids)
		}
		mustMatchReference(t, "after the rebuild", g, wantPos, wantVel)
	})
}

// TestSocketsWorkerStartFailsFast: a sockets worker whose job ends before it
// dials back is a start failure with the job's own error, the moment the job
// ends. (The coupler used to re-dial every 2 ms for 5 s without looking at
// the job, then report "never listened".)
func TestSocketsWorkerStartFailsFast(t *testing.T) {
	const kind = "fails-at-start"
	boom := errors.New("no licence for this kernel")
	if !kernel.Registered(kind) { // -count > 1 runs this again in one process
		kernel.Register(kind, func(kernel.Config) (kernel.Service, error) { return nil, boom })
	}
	_, sim := labSim(t)
	start := time.Now()
	_, err := sim.NewModel(context.Background(), kind, WorkerSpec{Resource: "desktop", Channel: ChannelSockets}, kernel.Empty{})
	if took := time.Since(start); took > time.Second {
		t.Fatalf("start failure took %v", took)
	}
	if err == nil || !strings.Contains(err.Error(), boom.Error()) {
		t.Fatalf("err = %v, want the job's own error (%v)", err, boom)
	}
}

// rebuildCalls reads, passively, how many gang_init / setup / restore calls
// the plane has recorded for the session's models: per-rank keys carry
// gang_init, the model's own key the rest.
func rebuildCalls(tb *Testbed) (n [3]uint64) {
	for k, st := range tb.Recorder.CallsSnapshot() {
		perRank := strings.Contains(k.Model, "/r")
		for i, method := range []string{kernel.MethodGangInit, "setup", kernel.MethodRestore} {
			if k.Method == method && perRank == (i == 0) {
				n[i] += st.Hist.Count
			}
		}
	}
	return n
}

// TestRebuildReplaysOneSequence: whatever the cause, bringing a model up is
// one sequence — wire the gang, setup, restore the snapshot — so causes
// that share a plan shape must put the same calls on the wire. A second
// copy of the sequence that drifts shows up here as a different delta. A
// death after a push the snapshot does not cover is no rebuild at all, but
// a structured error.
func TestRebuildReplaysOneSequence(t *testing.T) {
	stars := ic.Plummer(48, 47)
	ctx := context.Background()
	causes := []struct {
		name string
		k    int // ranks before
		// rebuild provokes one rebuild and returns the handle to go on with.
		rebuild func(t *testing.T, tb *Testbed, sim *Simulation, g *Gravity) *Gravity
		kAfter  int
		// cached: the rebuild would restore the cached snapshot, which a push
		// after the checkpoint is newer than. (A voluntary rebuild pulls a
		// fresh snapshot, and a resume checkpoints after the push.)
		cached bool
	}{
		{"solo death", 1, func(t *testing.T, tb *Testbed, sim *Simulation, g *Gravity) *Gravity {
			killWorker(t, tb.Daemon, g.WorkerIDs()[0])
			return g
		}, 1, true},
		{"gang rank death", 3, func(t *testing.T, tb *Testbed, sim *Simulation, g *Gravity) *Gravity {
			killWorker(t, tb.Daemon, g.WorkerIDs()[1])
			return g
		}, 3, true},
		{"migrate", 3, func(t *testing.T, tb *Testbed, sim *Simulation, g *Gravity) *Gravity {
			if err := g.Migrate(nil, tb.Spare); err != nil {
				t.Fatal(err)
			}
			return g
		}, 3, false},
		{"resize", 3, func(t *testing.T, tb *Testbed, sim *Simulation, g *Gravity) *Gravity {
			if err := g.Resize(nil, 2); err != nil {
				t.Fatal(err)
			}
			return g
		}, 2, false},
		{"resume", 3, func(t *testing.T, tb *Testbed, sim *Simulation, g *Gravity) *Gravity {
			man, err := sim.Checkpoint(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if err := sim.Stop(); err != nil {
				t.Fatal(err)
			}
			sim2, models, err := ResumeSimulation(ctx, tb.Daemon, nil, man)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { sim2.Stop() })
			return models[0].AsGravity()
		}, 3, false},
	}
	for _, c := range causes {
		for _, push := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/push=%v", c.name, push), func(t *testing.T) {
				tb, sim := elasticSim(t)
				g := elasticGravity(t, sim, tb.Mixed, c.k, stars)
				evolveLegs(t, g, 1.0/128)
				if _, err := sim.Checkpoint(ctx); err != nil {
					t.Fatal(err)
				}
				if push {
					if err := g.SetParticles(stars); err != nil {
						t.Fatal(err)
					}
				}
				before := rebuildCalls(tb)
				g = c.rebuild(t, tb, sim, g)
				want := [3]uint64{0, 1, 1}
				if c.kAfter > 1 {
					want[0] = uint64(c.kAfter)
				}
				if push && c.cached {
					mustFailUncovered(t, g.EvolveTo(ctx, 1.0/64), "set_particles")
					want = [3]uint64{}
				} else {
					evolveLegs(t, g, 1.0/64) // a death is rebuilt by the call that finds it
				}
				after := rebuildCalls(tb)

				var got [3]uint64
				for i := range got {
					got[i] = after[i] - before[i]
				}
				if got != want {
					t.Fatalf("gang_init/setup/restore = %v, want %v", got, want)
				}
			})
		}
	}
}

// TestCallsIssuedDuringRebuildKeepOrder: calls issued while the endpoint is
// being rebuilt wait in the one queue and reach the new endpoint in issue
// order — a pull issued behind a kick sees the kick.
func TestCallsIssuedDuringRebuildKeepOrder(t *testing.T) {
	stars := ic.Plummer(192, 53)
	tb, sim := elasticSim(t)
	g := elasticGravity(t, sim, tb.Mixed, 2, stars)
	dv := make([]data.Vec3, stars.Len())
	for i := range dv {
		dv[i] = data.Vec3{0.125, 0, 0}
	}
	before := stars.Clone()
	if err := g.GoPull(before).Wait(nil); err != nil {
		t.Fatal(err)
	}

	// The migration's snapshot pull queues behind a long evolve, so the
	// proxy stays in its migrate phase while the evolve runs — long enough
	// to be seen there, however fast the host.
	long := g.GoEvolveTo(1.0 / 8)
	migrated := make(chan error, 1)
	go func() { migrated <- g.Migrate(nil, tb.Spare) }()
	for deadline := time.Now().Add(30 * time.Second); g.currentPhase() != phaseMigrate; runtime.Gosched() {
		if time.Now().After(deadline) {
			t.Fatal("the migration never claimed the proxy")
		}
	}
	got := stars.Clone()
	kick := g.GoKick(dv).(*Call)
	pull := g.GoPull(got)
	g.mu.Lock()
	parked := len(g.parked)
	g.mu.Unlock()
	if parked != 2 {
		t.Fatalf("%d calls parked while rebuilding, want the kick and the pull", parked)
	}
	if err := <-migrated; err != nil {
		t.Fatal(err)
	}
	if err := Gather(context.Background(), long, kick, pull); err != nil {
		t.Fatal(err)
	}
	if kick.doneAt > pull.doneAt {
		t.Fatalf("the kick completed at %v, after the pull issued behind it (%v)", kick.doneAt, pull.doneAt)
	}
	// The pull saw the evolved state plus the kick: undo the kick and it
	// must be what a plain evolve leaves.
	ref := elasticGravity(t, sim, tb.Mixed, 2, stars)
	evolveLegs(t, ref, 1.0/8)
	want := stars.Clone()
	if err := ref.GoPull(want).Wait(nil); err != nil {
		t.Fatal(err)
	}
	for i := range dv {
		if got.Pos[i] != want.Pos[i] || got.Vel[i] != want.Vel[i].Add(dv[i]) {
			t.Fatalf("particle %d: the pull saw vel %v, want the evolved %v plus the kick (before: %v)",
				i, got.Vel[i], want.Vel[i], before.Vel[i])
		}
	}
}

// TestLifecycleLeakUnderConcurrentCauses drives a K=3 gang
// through every cause at once: each round pipelines an evolve leg and a
// pull, runs a Migrate or Resize beside them, and kills a rank of the new
// endpoint the moment its worker ids appear. Rebuilds must never overlap,
// every call must end in success or a structured error, the trajectory must
// match an undisturbed run bit for bit, and nothing — goroutine, worker —
// may be left behind.
func TestLifecycleLeakUnderConcurrentCauses(t *testing.T) {
	stars := ic.Plummer(64, 59)
	rounds := []func(tb *Testbed, g *Gravity) error{
		func(tb *Testbed, g *Gravity) error { return g.Migrate(nil, tb.Spare) },
		func(tb *Testbed, g *Gravity) error { return g.Resize(nil, 2) },
		func(tb *Testbed, g *Gravity) error { return g.Resize(nil, 3) },
		func(tb *Testbed, g *Gravity) error { return g.Migrate(nil, tb.Mixed) },
	}
	legs := make([]float64, len(rounds))
	for i := range legs {
		legs[i] = float64(i+1) / 64
	}
	wantPos, wantVel := referenceRun(t, stars, legs...)

	tb, err := NewElasticTestbed()
	if err != nil {
		t.Fatal(err)
	}
	defer tb.Close()
	tb.Daemon.CheckpointPeerAddr() // the store's listener opens on first use and stays
	baseGoroutines := -1           // two equal readings: the testbeds' start-up has wound down
	for n := runtime.NumGoroutine(); n != baseGoroutines; n = runtime.NumGoroutine() {
		baseGoroutines = n
		time.Sleep(50 * time.Millisecond)
	}
	workerTable := func() int {
		tb.Daemon.mu.Lock()
		defer tb.Daemon.mu.Unlock()
		return len(tb.Daemon.workers)
	}
	baseWorkers := workerTable()

	ctx := context.Background()
	sim := NewSimulation(ctx, tb.Daemon, nil)
	g := elasticGravity(t, sim, tb.Mixed, 3, stars)
	structured := func(what string, err error) {
		t.Helper()
		if err != nil && !errors.Is(err, ErrMigration) && !errors.Is(err, ErrWorkerDied) {
			t.Errorf("%s: unstructured failure: %v", what, err)
		}
	}
	// checkpoint drives the model to the leg boundary and caches its state
	// there, so a later death resumes from this boundary. A death found by
	// the checkpoint itself rolls the model back to the previous boundary,
	// hence the leg is driven again each try (a no-op once it is reached).
	checkpoint := func(leg float64) {
		t.Helper()
		for try := 0; ; try++ {
			err := g.EvolveTo(ctx, leg)
			if err == nil {
				_, err = sim.Checkpoint(ctx)
			}
			if err == nil {
				return
			}
			structured("checkpoint", err)
			if try == 5 {
				t.Fatalf("leg %v: no checkpoint after %d tries: %v", leg, try, err)
			}
		}
	}
	checkpoint(0)

	for r, cause := range rounds {
		ids := g.WorkerIDs()
		stop, killed, watched := make(chan struct{}), make(chan struct{}), make(chan struct{})
		go func() { // the watcher: rebuilds never overlap, and a rank of the new endpoint dies young
			defer close(watched)
			for victim := 0; ; runtime.Gosched() {
				select {
				case <-stop:
					return
				default:
				}
				if live := len(tb.Daemon.SessionWorkers("")); live > 3 {
					t.Errorf("round %d: %d live workers — two rebuilds in flight", r, live)
					return
				}
				if now := g.WorkerIDs(); victim == 0 && len(now) > 1 && now[0] != ids[0] {
					victim = now[1]
					tb.Daemon.KillWorker(victim)
					for tb.Daemon.WorkerAlive(victim) {
						runtime.Gosched()
					}
					t.Logf("round %d: killed rank 1 (worker %d) of the new endpoint %v", r, victim, now)
					close(killed)
				}
			}
		}()
		evolve, pull := g.GoEvolveTo(legs[r]), g.GoPull(stars.Clone())
		rebuilt := make(chan error, 1)
		go func() { rebuilt <- cause(tb, g) }()
		structured("pipelined evolve", evolve.Wait(ctx))
		structured("pipelined pull", pull.Wait(ctx))
		err := <-rebuilt
		structured("rebuild", err)
		t.Logf("round %d: rebuild: %v; workers %v -> %v", r, err, ids, g.WorkerIDs())
		if now := g.WorkerIDs(); len(now) > 1 && now[0] != ids[0] {
			<-killed // the endpoint moved: the kill is on its way, let it land inside the round
		}
		close(stop)
		<-watched
		checkpoint(legs[r])
	}
	mustMatchReference(t, "after every cause at once", g, wantPos, wantVel)

	if err := sim.Stop(); err != nil {
		t.Fatal(err)
	}
	if n := workerTable(); n != baseWorkers {
		t.Fatalf("the daemon holds %d workers after Stop; started at %d", n, baseWorkers)
	}
	// The far ends of closed connections wind down asynchronously.
	for deadline := time.Now().Add(10 * time.Second); runtime.NumGoroutine() > baseGoroutines && time.Now().Before(deadline); {
		time.Sleep(5 * time.Millisecond)
	}
	if got := runtime.NumGoroutine(); got > baseGoroutines {
		buf := make([]byte, 1<<20)
		t.Fatalf("goroutines grew from %d to %d:\n%s", baseGoroutines, got, buf[:runtime.Stack(buf, true)])
	}
}
