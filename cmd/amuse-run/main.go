// Command amuse-run is the config-driven simulation runner: the user
// experience of §5's four steps. Resources come from an IbisDeploy-style
// configuration file (or a built-in testbed), the placement is a scenario
// name, and the simulation is the paper's embedded star cluster.
//
//	amuse-run -placement jungle -stars 200 -gas 2000 -iters 2
//	amuse-run -config resources.conf -list
//
// With -checkpoint the run snapshots every worker after each completed
// iteration and writes a self-contained run file; a run killed at any
// point (Ctrl-C, -timeout, a dead machine) is continued bit-compatibly
// with -resume:
//
//	amuse-run -testbed sc11 -placement sc11-worst-case -iters 8 -checkpoint run.ckpt
//	amuse-run -testbed sc11 -resume run.ckpt
//
// With -attach the runner is a thin client of a running jungled control
// plane instead of building its own testbed: it attaches a named session,
// submits the workload, and detaches. -keep leaves the session alive on
// the daemon so a later attach (after an idle-reap, even) continues it
// bit-identically:
//
//	jungled &
//	amuse-run -attach 127.0.0.1:17979 -session mine -stars 200 -gas 2000 -iters 2 -keep
//	amuse-run -attach 127.0.0.1:17979 -session mine -iters 2
//
// With -sweep N the runner is an ensemble campaign instead of one
// simulation: N agent-based colonies (4 initial-condition streams crossed
// with N/4 couplings) fan through a local control plane's admission queue
// and the aggregate report is printed:
//
//	amuse-run -sweep 32 -sweep-steps 24 -sweep-slots 8
package main

import (
	"bytes"
	"context"
	"encoding/gob"
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"jungle/internal/core"
	"jungle/internal/deploy"
	"jungle/internal/ensemble"
	"jungle/internal/exp"
	"jungle/internal/phys/abm"
	"jungle/internal/sched"

	_ "jungle/internal/kernels"
)

func main() {
	configPath := flag.String("config", "", "IbisDeploy resource config to add to the testbed")
	testbed := flag.String("testbed", "lab", "lab | sc11 (the SC11 demo topology: coupler in Seattle, models in NL)")
	placement := flag.String("placement", "jungle", "cpu-only | local-gpu | remote-gpu | jungle | sc11-worst-case")
	stars := flag.Int("stars", 100, "number of stars")
	gas := flag.Int("gas", 1000, "number of gas particles")
	iters := flag.Int("iters", 1, "bridge iterations")
	list := flag.Bool("list", false, "list resources and exit")
	timeout := flag.Duration("timeout", 0, "wall-clock budget for the run; cancellation aborts in-flight worker calls (0 = none)")
	checkpoint := flag.String("checkpoint", "", "write a resumable run checkpoint to this file after every iteration")
	resume := flag.String("resume", "", "continue a killed run from its checkpoint file (ignores -placement/-stars/-gas/-iters)")
	attach := flag.String("attach", "", "run through a jungled control plane at this address instead of a local testbed")
	session := flag.String("session", "", "session id to attach (required with -attach)")
	keep := flag.Bool("keep", false, "with -attach: detach without closing, so the session can be re-attached later")
	observe := flag.Bool("observe", false, "after the run, print the observability plane: per-method call histograms and link health")
	sweepN := flag.Int("sweep", 0, "run an ensemble sweep of this many agent-based members instead of one simulation (multiple of 4)")
	sweepSteps := flag.Int("sweep-steps", 24, "generations per sweep member")
	sweepSlots := flag.Int("sweep-slots", 8, "control-plane admission slots the sweep fans over")
	flag.Parse()

	if *sweepN > 0 {
		if err := runSweep(*sweepN, *sweepSteps, *sweepSlots); err != nil {
			log.Fatalf("sweep: %v", err)
		}
		return
	}

	if *attach != "" {
		if *session == "" {
			log.Fatal("-attach requires -session")
		}
		if err := runAttached(*attach, *session, *stars, *gas, *iters, *keep); err != nil {
			log.Fatalf("attach: %v", err)
		}
		return
	}

	// The run context bounds everything downstream: worker start-up waits,
	// state uploads and every in-flight RPC of every bridge iteration.
	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	var tb *core.Testbed
	var err error
	switch *testbed {
	case "lab":
		tb, err = core.NewLabTestbed()
	case "sc11":
		tb, err = core.NewSC11Testbed()
	default:
		log.Fatalf("unknown testbed %q (want lab or sc11)", *testbed)
	}
	if err != nil {
		log.Fatalf("testbed: %v", err)
	}
	defer tb.Close()

	if *configPath != "" {
		text, err := os.ReadFile(*configPath)
		if err != nil {
			log.Fatalf("config: %v", err)
		}
		resources, err := deploy.ParseConfig(string(text))
		if err != nil {
			log.Fatalf("config: %v", err)
		}
		for _, r := range resources {
			if err := tb.Deployment.AddResource(r); err != nil {
				log.Fatalf("add resource %s: %v", r.Name, err)
			}
			fmt.Printf("added resource %s (%s on %s)\n", r.Name, r.Middleware, r.Frontend)
		}
	}

	if *list {
		fmt.Println(tb.Deployment.RenderStatus())
		return
	}

	if *resume != "" {
		// Continue a killed run: the run file carries the placement, the
		// workload, the bridge clock and every worker's snapshot.
		res, err := exp.ResumeScenario(ctx, tb, *resume)
		if err != nil {
			log.Fatalf("resume: %v", err)
		}
		report(tb, res, *observe)
		return
	}

	scenarios := append(exp.LabScenarios(tb), exp.SC11Placement(tb))
	var chosen *exp.Placement
	for i := range scenarios {
		if scenarios[i].Name == *placement {
			chosen = &scenarios[i]
			break
		}
	}
	if chosen == nil {
		log.Fatalf("unknown placement %q (want cpu-only, local-gpu, remote-gpu, jungle or sc11-worst-case)", *placement)
	}

	w := exp.Workload{Stars: *stars, Gas: *gas, GasFrac: 0.9, Seed: 42, DT: 1.0 / 64, Eps: 0.05}
	var res exp.RunResult
	before, beforeErr := os.Stat(*checkpoint)
	if *checkpoint != "" {
		res, err = exp.RunScenarioCheckpointed(ctx, tb, w, *chosen, *iters, *checkpoint)
	} else {
		res, err = exp.RunScenario(ctx, tb, w, *chosen, *iters)
	}
	if err != nil {
		// Only point at the checkpoint file if THIS run wrote it — a file
		// left by a previous run at the same path must not be offered for
		// resume, and a failure before the first completed iteration
		// leaves nothing of this run on disk.
		if *checkpoint != "" && checkpointWritten(*checkpoint, before, beforeErr) {
			log.Fatalf("run: %v (last completed iteration is checkpointed in %s; continue with -resume)", err, *checkpoint)
		}
		log.Fatalf("run: %v", err)
	}
	report(tb, res, *observe)
}

// checkpointWritten reports whether the checkpoint file at path was
// (re)written since the pre-run stat: it exists now and either did not
// exist before or its identity changed (the checkpointed run replaces the
// file wholesale via rename, so size/mtime move on every save).
func checkpointWritten(path string, before os.FileInfo, beforeErr error) bool {
	after, err := os.Stat(path)
	if err != nil {
		return false
	}
	if beforeErr != nil {
		return true // did not exist before this run
	}
	return after.Size() != before.Size() || !after.ModTime().Equal(before.ModTime())
}

// runSweep is the ensemble path: expand a members-sized campaign (4
// initial-condition streams crossed with members/4 couplings), fan it
// through a local control plane over slots admission slots, and print
// the aggregate report.
func runSweep(members, steps, slots int) error {
	const nIC = 4
	if members%nIC != 0 {
		return fmt.Errorf("-sweep %d must be a multiple of %d", members, nIC)
	}
	ics := make([]float64, nIC)
	for i := range ics {
		ics[i] = float64(i)
	}
	bs := make([]float64, members/nIC)
	for i := range bs {
		bs[i] = 0.05 + 0.02*float64(i)
	}
	sweep := &ensemble.ABMSweep{
		Plan: &ensemble.Plan{
			Name:     "amuse-run",
			BaseSeed: 42,
			Axes: []ensemble.Axis{
				{Name: ensemble.AxisIC, Values: ics},
				{Name: ensemble.AxisB, Values: bs},
			},
			SetupAxes: []string{ensemble.AxisIC},
		},
		Base:  abm.Params{W: 24, H: 24, D: 0.15, R: 0.6, B: 0.2, DT: 0.01},
		Steps: steps,
		Spec:  core.WorkerSpec{Channel: core.ChannelIbis},
	}
	tb, err := core.NewLabTestbed()
	if err != nil {
		return err
	}
	defer tb.Close()
	s := sched.New(tb.Daemon, sched.Config{
		MaxLive: slots, QueueCap: members,
		RetryAfter: 2 * time.Millisecond, Recorder: tb.Recorder,
	})
	defer s.Shutdown()
	rep, err := sweep.Run(context.Background(), s)
	if err != nil {
		return err
	}
	fmt.Print(rep.Render())
	for _, m := range rep.Members {
		if m.Err != "" {
			fmt.Printf("  member %04d FAILED: %s\n", m.Index, m.Err)
		}
	}
	if rep.Failures > 0 {
		return fmt.Errorf("%d of %d members failed", rep.Failures, len(rep.Members))
	}
	return nil
}

// runAttached is the thin-client path: attach a session on a running
// jungled (waiting in its admission queue if the plane is full), submit
// the workload as one session_run op, report, and detach.
func runAttached(addr, session string, stars, gas, iters int, keep bool) error {
	c, err := sched.Dial(addr)
	if err != nil {
		return err
	}
	defer c.Close()
	att, err := c.Attach(session, true)
	if err != nil {
		return err
	}
	if att.Resumed {
		fmt.Printf("session %s resumed from its eviction snapshot\n", att.Session)
	} else {
		fmt.Printf("session %s attached (%s)\n", att.Session, att.State)
	}
	work := exp.SessionWork{
		W:          exp.Workload{Stars: stars, Gas: gas, GasFrac: 0.9, Seed: 42, DT: 1.0 / 64, Eps: 0.05},
		Iterations: iters,
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(work); err != nil {
		return err
	}
	out, err := c.Run(buf.Bytes())
	if err != nil {
		return err
	}
	var rep exp.SessionReport
	if err := gob.NewDecoder(bytes.NewReader(out)).Decode(&rep); err != nil {
		return err
	}
	res := rep.Result
	fmt.Printf("session %s: %d iterations, %v per iteration (setup %v, %d supernovae, state %016x)\n",
		session, res.Iterations, res.PerIteration, res.Setup, res.Supernovae, res.StateDigest)
	st, err := c.Detach(!keep)
	if err != nil {
		return err
	}
	fmt.Printf("detached (session %s)\n", st)
	return nil
}

func report(tb *core.Testbed, res exp.RunResult, observe bool) {
	fmt.Printf("placement %s: %v per iteration (setup %v, %d supernovae, %s)\n",
		res.Scenario, res.PerIteration, res.Setup, res.Supernovae, res.Calls.String())
	fmt.Println()
	fmt.Println(tb.Deployment.RenderStatus())
	if observe {
		// The run just ended, so "now" is its final virtual time — links
		// probed more than a staleness window before it are marked STALE.
		fmt.Println(tb.Recorder.RenderCalls())
		fmt.Println(tb.Recorder.RenderHealth(res.Setup + res.PerIteration*time.Duration(res.Iterations)))
	}
}
