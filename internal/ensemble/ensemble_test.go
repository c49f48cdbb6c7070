package ensemble

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"jungle/internal/core"
	"jungle/internal/phys/abm"
	"jungle/internal/sched"

	_ "jungle/internal/kernels"
)

// testPlane builds a scheduler over a fresh lab testbed, tuned for fast
// retry loops.
func testPlane(t *testing.T, cfg sched.Config) *sched.Scheduler {
	t.Helper()
	tb, err := core.NewLabTestbed()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(tb.Close)
	if cfg.RetryAfter == 0 {
		cfg.RetryAfter = 2 * time.Millisecond
	}
	cfg.Recorder = tb.Recorder
	s := sched.New(tb.Daemon, cfg)
	t.Cleanup(s.Shutdown)
	return s
}

// smokeSweep is the N=8 campaign the short-mode smoke (and the
// reproducibility pass) runs: 2 ics x 4 couplings, 16x16 colonies.
func smokeSweep() *ABMSweep {
	return &ABMSweep{
		Plan: &Plan{
			Name:     "smoke",
			BaseSeed: 7,
			Axes: []Axis{
				{Name: AxisIC, Values: []float64{0, 1}},
				{Name: AxisB, Values: []float64{0.1, 0.2, 0.3, 0.4}},
			},
			SetupAxes: []string{AxisIC},
		},
		Base:  abm.Params{W: 16, H: 16, D: 0.15, R: 0.6, B: 0.2, DT: 0.01},
		Steps: 24,
		Spec:  core.WorkerSpec{Channel: core.ChannelIbis},
	}
}

// TestEnsembleBitReproducible: the same plan and seed must produce the
// identical per-member digest set whether the members run concurrently
// through scheduler admission, concurrently again, or strictly
// sequentially — completion order and slot contention must be invisible
// in the results. This doubles as the short-mode N=8 smoke in make ci.
func TestEnsembleBitReproducible(t *testing.T) {
	run := func(sequential bool) *Report {
		s := testPlane(t, sched.Config{MaxLive: 3, QueueCap: 8})
		sweep := smokeSweep()
		sweep.Sequential = sequential
		rep, err := sweep.Run(context.Background(), s)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Failures != 0 {
			t.Fatalf("sweep had %d failures: %+v", rep.Failures, rep.Members)
		}
		return rep
	}

	conc := run(false)
	again := run(false)
	seq := run(true)

	if len(conc.Members) != 8 {
		t.Fatalf("expanded %d members, want 8", len(conc.Members))
	}
	for i, d := range conc.Digests() {
		if d == 0 {
			t.Fatalf("member %d has zero digest", i)
		}
		if again.Digests()[i] != d {
			t.Fatalf("member %d digest differs across concurrent runs: %x vs %x", i, d, again.Digests()[i])
		}
		if seq.Digests()[i] != d {
			t.Fatalf("member %d digest differs between concurrent and sequential: %x vs %x", i, d, seq.Digests()[i])
		}
	}
	// Members with different couplings genuinely diverge (the digest is
	// not a constant).
	if conc.Digests()[0] == conc.Digests()[1] {
		t.Fatal("members with different B produced identical digests")
	}
	// Shared-setup dedup: 8 members, 2 initial conditions, 2 staged blobs.
	if conc.StagedSetups != 2 {
		t.Fatalf("staged %d setups, want 2", conc.StagedSetups)
	}
	// Makespan model: concurrent packs over MaxLive slots, sequential
	// pays the sum.
	if conc.Slots != 3 || seq.Slots != 1 {
		t.Fatalf("slots = %d/%d, want 3/1", conc.Slots, seq.Slots)
	}
	if conc.Makespan >= conc.SumVirtual {
		t.Fatalf("concurrent makespan %v not below sequential bound %v", conc.Makespan, conc.SumVirtual)
	}
	if seq.Makespan != seq.SumVirtual {
		t.Fatalf("sequential makespan %v != virtual sum %v", seq.Makespan, seq.SumVirtual)
	}
	// Quantiles are histogram bucket upper bounds: monotone in q and within
	// 2x of the exact member maximum.
	if conc.P50 == 0 || conc.P90 < conc.P50 || conc.MaxMember == 0 || conc.P90 > 2*conc.MaxMember {
		t.Fatalf("percentiles inconsistent: p50=%v p90=%v max=%v", conc.P50, conc.P90, conc.MaxMember)
	}
	out := conc.Render()
	for _, want := range []string{"smoke", "8 members", "staged setups 2"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Render() missing %q:\n%s", want, out)
		}
	}
}

// TestEnsembleMemberFaultIsolation kills one member's worker mid-run.
// After a write no checkpoint covers, that member must report a structured
// error in the report; with nothing written yet, its worker is replaced and
// the member finishes as if undisturbed (§5's transparent replacement).
// Either way every other member's digest is unaffected (this test runs
// under make race).
func TestEnsembleMemberFaultIsolation(t *testing.T) {
	baseline := func() *Report {
		s := testPlane(t, sched.Config{MaxLive: 3, QueueCap: 8})
		rep, err := smokeSweep().Run(context.Background(), s)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}()

	const victim = 5
	// run kills the victim's worker right after its setup — after one step
	// no checkpoint covers, if stepFirst — and holds the member until the
	// pool has observed the death (KillWorker is asynchronous) so its next
	// call deterministically meets it.
	run := func(t *testing.T, stepFirst bool) *Report {
		s := testPlane(t, sched.Config{MaxLive: 3, QueueCap: 8})
		died := make(chan int, 8)
		s.Daemon().OnWorkerDied = func(id int) { died <- id }
		sweep := smokeSweep()
		sweep.OnModel = func(m Member, model *core.Model) {
			if m.Index != victim {
				return
			}
			if stepFirst {
				if err := model.Call(context.Background(), "step", abm.StepArgs{Steps: 1}, nil); err != nil {
					t.Error(err)
				}
			}
			for _, id := range model.WorkerIDs() {
				s.Daemon().KillWorker(id)
			}
			select {
			case <-died:
			case <-time.After(10 * time.Second):
				t.Error("victim worker death never observed")
			}
		}
		rep, err := sweep.Run(context.Background(), s)
		if err != nil {
			t.Fatal(err)
		}
		for i, m := range rep.Members {
			if i == victim {
				continue
			}
			if m.Err != "" {
				t.Fatalf("member %d failed alongside the victim: %s", i, m.Err)
			}
			if m.Digest != baseline.Members[i].Digest {
				t.Fatalf("member %d digest perturbed by the victim's death: %x vs %x",
					i, m.Digest, baseline.Members[i].Digest)
			}
		}
		return rep
	}

	t.Run("uncovered death fails the member", func(t *testing.T) {
		rep := run(t, true)
		if rep.Failures != 1 {
			t.Fatalf("report counts %d failures, want exactly the victim", rep.Failures)
		}
		m := rep.Members[victim]
		if m.Err == "" || m.Digest != 0 {
			t.Fatalf("victim member lacks a structured error: %+v", m)
		}
		if !strings.Contains(m.Err, fmt.Sprintf("member %d", victim)) || !strings.Contains(m.Err, "not replaced: step (call ") {
			t.Fatalf("victim error %q does not identify the member and the uncovered step", m.Err)
		}
	})

	t.Run("death with nothing written is replaced", func(t *testing.T) {
		rep := run(t, false)
		if rep.Failures != 0 {
			t.Fatalf("report counts %d failures, want the victim replaced: %+v", rep.Failures, rep.Members[victim])
		}
		if got, want := rep.Members[victim].Digest, baseline.Members[victim].Digest; got != want {
			t.Fatalf("replaced victim digest %x, want the undisturbed %x", got, want)
		}
	})
}

// TestEnsembleRetryAccounting: with one slot and a one-deep queue, the
// fan-out must absorb busy rejections through AttachRetry and report how
// many — and still complete every member.
func TestEnsembleRetryAccounting(t *testing.T) {
	s := testPlane(t, sched.Config{MaxLive: 1, QueueCap: 1})
	sweep := smokeSweep()
	sweep.Attempts = 2000
	rep, err := sweep.Run(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failures != 0 {
		t.Fatalf("%d members failed under backpressure: %+v", rep.Failures, rep.Members)
	}
	if rep.Retries == 0 {
		t.Fatal("8 members through a 1-slot/1-queue plane absorbed no busy rejections")
	}
}

// TestRunValidation covers the engine's error paths.
func TestRunValidation(t *testing.T) {
	s := testPlane(t, sched.Config{})
	ctx := context.Background()

	if _, err := Run(ctx, Config{}); err == nil {
		t.Fatal("Run accepted an empty config")
	}
	bad := smokeSweep()
	bad.Plan.Axes = nil
	if _, err := bad.Run(ctx, s); err == nil {
		t.Fatal("Run accepted a degenerate plan")
	}
	noSteps := smokeSweep()
	noSteps.Steps = 0
	if _, err := noSteps.Run(ctx, s); err == nil {
		t.Fatal("sweep accepted Steps=0")
	}
	badSetup := smokeSweep()
	badSetup.Base.W = 0
	if _, err := badSetup.Run(ctx, s); err == nil {
		t.Fatal("sweep staged a setup blob for a degenerate colony")
	}
}
