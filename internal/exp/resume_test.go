package exp

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"jungle/internal/core"
	"jungle/internal/core/kernel"
)

// TestResumeScenarioBitCompatible is the end-to-end resume guarantee on
// the full coupled stack (the SC11 placement: every model remote): a run
// that checkpoints, is killed after half its iterations, and resumes from
// the run file must end in exactly the state — bit for bit, supernovae
// included — of a run that was never interrupted.
func TestResumeScenarioBitCompatible(t *testing.T) {
	const iters = 4
	w := DefaultWorkload().Scaled(0.02)

	straight := func(t *testing.T) RunResult {
		tb, err := core.NewSC11Testbed()
		if err != nil {
			t.Fatal(err)
		}
		defer tb.Close()
		res, err := RunScenario(context.Background(), tb, w, SC11Placement(tb), iters)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	base := straight(t)
	if base.StateDigest == 0 {
		t.Fatal("baseline digest unavailable")
	}

	// The "killed" run: checkpoint every iteration, stop after half. The
	// run file then records Done=iters/2 of a larger plan — exactly what a
	// kill between iterations leaves on disk.
	tb, err := core.NewSC11Testbed()
	if err != nil {
		t.Fatal(err)
	}
	defer tb.Close()
	path := filepath.Join(t.TempDir(), "sc11.run")
	if _, err := RunScenarioCheckpointed(context.Background(), tb, w, SC11Placement(tb), iters/2, path); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	rc, err := decodeRunCheckpoint(b)
	if err != nil {
		t.Fatal(err)
	}
	if rc.Done != iters/2 {
		t.Fatalf("run file Done = %d, want %d", rc.Done, iters/2)
	}
	rc.Iterations = iters // the plan the killed run was pursuing
	if err := os.WriteFile(path, kernel.Encode(rc), 0o644); err != nil {
		t.Fatal(err)
	}

	// Resume on a fresh daemon (the first one is still serving; a second
	// resume-from-cold is exercised by reusing the same testbed — the
	// original session was stopped by RunScenarioCheckpointed's defer).
	res, err := ResumeScenario(context.Background(), tb, path)
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations != iters/2 {
		t.Fatalf("resumed iterations = %d, want %d", res.Iterations, iters/2)
	}
	if res.StateDigest != base.StateDigest {
		t.Fatalf("resumed end state digest %x != uninterrupted %x", res.StateDigest, base.StateDigest)
	}
	if res.Supernovae != base.Supernovae {
		t.Fatalf("resumed supernovae %d != uninterrupted %d", res.Supernovae, base.Supernovae)
	}

	// The finished run file refuses a second resume.
	if _, err := ResumeScenario(context.Background(), tb, path); err == nil {
		t.Fatal("resume of a completed run did not fail")
	}
}

// TestScenarioSurvivesWorkerDeath is §5's "transparently find a replacement
// machine" on the run a user makes (amuse-run -checkpoint): the SC11
// placement, checkpointed after every iteration. After each of the first
// four checkpoints a different model's worker is killed — gravity, hydro,
// field, stellar — and the run finishes in process, no -resume, in exactly
// the uninterrupted run's state, supernovae included. Every replacement
// must start well inside a lowered ReadyTimeout, so none was placed on a
// cluster the run's other models fill. A kill after a step no checkpoint
// covers fails structured, naming the call a replacement would roll back.
func TestScenarioSurvivesWorkerDeath(t *testing.T) {
	const iters = 8 // stellar evolves at steps 4 and 8: once more after its restore
	w := DefaultWorkload().Scaled(0.02)
	ctx := context.Background()

	base := func() RunResult {
		tb, err := core.NewSC11Testbed()
		if err != nil {
			t.Fatal(err)
		}
		defer tb.Close()
		res, err := RunScenario(ctx, tb, w, SC11Placement(tb), iters)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}()

	tb, err := core.NewSC11Testbed()
	if err != nil {
		t.Fatal(err)
	}
	defer tb.Close()
	tb.Daemon.ReadyTimeout = 5 * time.Second
	died := make(chan int, 8)
	tb.Daemon.OnWorkerDied = func(id int) { died <- id }
	kill := func(id int) {
		t.Helper()
		tb.Daemon.KillWorker(id)
		select {
		case <-died:
		case <-time.After(10 * time.Second):
			t.Fatalf("death of worker %d not observed", id)
		}
	}

	p := SC11Placement(tb)
	sb, err := startScenario(ctx, tb, w, p)
	if err != nil {
		t.Fatal(err)
	}
	defer sb.sim.Stop()
	setup := sb.sim.Elapsed()
	victims := tb.Daemon.SessionWorkers("") // gravity, hydro, field, stellar: start order
	if len(victims) != 4 {
		t.Fatalf("SC11 run has workers %v, want one per model", victims)
	}
	path := filepath.Join(t.TempDir(), "sc11.run")
	for i := 0; i < iters; i++ {
		if err := runCheckpointedLoop(ctx, sb, p.Name, w, i+1, i, path); err != nil {
			t.Fatal(err)
		}
		if i < len(victims) {
			kill(victims[i])
		}
	}
	res, err := sb.result(p.Name, iters, setup)
	if err != nil {
		t.Fatal(err)
	}
	if live := tb.Daemon.SessionWorkers(""); len(live) != 4 || slices.ContainsFunc(victims, func(id int) bool { return slices.Contains(live, id) }) {
		t.Fatalf("live workers %v, want four replacements of %v", live, victims)
	}
	if res.StateDigest != base.StateDigest {
		t.Fatalf("end state digest %x after four replacements != uninterrupted %x", res.StateDigest, base.StateDigest)
	}
	if res.Supernovae != base.Supernovae {
		t.Fatalf("supernovae %d after four replacements != uninterrupted %d", res.Supernovae, base.Supernovae)
	}

	// One more step, no checkpoint: the gravity model's snapshot no longer
	// covers it.
	if err := sb.bridge.Step(ctx); err != nil {
		t.Fatal(err)
	}
	kill(sb.grav.WorkerIDs()[0])
	_, err = sb.grav.GetState(ctx)
	if !errors.Is(err, core.ErrWorkerDied) || !strings.Contains(err.Error(), "not replaced: kick (call ") {
		t.Fatalf("death after an uncovered step: %v, want ErrWorkerDied naming the kick", err)
	}
}
