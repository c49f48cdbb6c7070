package exp

import (
	"bytes"
	"context"
	"encoding/gob"
	"os"
	"path/filepath"
	"testing"

	"jungle/internal/core"
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
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(rc); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
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
