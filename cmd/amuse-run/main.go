// Command amuse-run is the config-driven simulation runner: the user
// experience of §5's four steps. Resources come from an IbisDeploy-style
// configuration file (or a built-in testbed), the placement is a scenario
// name, and the simulation is the paper's embedded star cluster.
//
//	amuse-run -placement jungle -stars 200 -gas 2000 -iters 2
//	amuse-run -config resources.conf -list
//
// With -checkpoint the run snapshots every worker after each completed
// iteration and writes a self-contained run file. A worker that dies while
// the last snapshot still covers its model is replaced in process and the
// run goes on; a run killed at any other point (Ctrl-C, -timeout, a death
// after a write no snapshot holds) is continued bit-compatibly with
// -resume:
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
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"

	"jungle/internal/core"
	"jungle/internal/deploy"
	"jungle/internal/exp"
	"jungle/internal/sched"

	"jungle/internal/core/kernel"
	_ "jungle/internal/kernels"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run parses args as the command line and runs it, printing to out.
func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("amuse-run", flag.ContinueOnError)
	configPath := fs.String("config", "", "IbisDeploy resource config to add to the testbed")
	testbed := fs.String("testbed", "lab", "lab | sc11 (the SC11 demo topology: coupler in Seattle, models in NL)")
	placement := fs.String("placement", "jungle", "cpu-only | local-gpu | remote-gpu | jungle | sc11-worst-case")
	stars := fs.Int("stars", 100, "number of stars")
	gas := fs.Int("gas", 1000, "number of gas particles")
	iters := fs.Int("iters", 1, "bridge iterations")
	list := fs.Bool("list", false, "list resources and exit")
	timeout := fs.Duration("timeout", 0, "wall-clock budget for the run; cancellation aborts in-flight worker calls (0 = none)")
	checkpoint := fs.String("checkpoint", "", "write a resumable run checkpoint to this file after every iteration")
	resume := fs.String("resume", "", "continue a killed run from its checkpoint file (ignores -placement/-stars/-gas/-iters)")
	attach := fs.String("attach", "", "run through a jungled control plane at this address instead of a local testbed")
	session := fs.String("session", "", "session id to attach (required with -attach)")
	keep := fs.Bool("keep", false, "with -attach: detach without closing, so the session can be re-attached later")
	observe := fs.Bool("observe", false, "after the run, print the observability plane: per-method call histograms and link health")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *attach != "" {
		if *session == "" {
			return errors.New("-attach requires -session")
		}
		if err := runAttached(out, *attach, *session, *stars, *gas, *iters, *keep); err != nil {
			return fmt.Errorf("attach: %w", err)
		}
		return nil
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
		return fmt.Errorf("unknown testbed %q (want lab or sc11)", *testbed)
	}
	if err != nil {
		return fmt.Errorf("testbed: %w", err)
	}
	defer tb.Close()

	if *configPath != "" {
		text, err := os.ReadFile(*configPath)
		if err != nil {
			return fmt.Errorf("config: %w", err)
		}
		resources, err := deploy.ParseConfig(string(text))
		if err != nil {
			return fmt.Errorf("config: %w", err)
		}
		for _, r := range resources {
			if err := tb.Deployment.AddResource(r); err != nil {
				return fmt.Errorf("add resource %s: %w", r.Name, err)
			}
			fmt.Fprintf(out, "added resource %s (%s on %s)\n", r.Name, r.Middleware, r.Frontend)
		}
	}

	if *list {
		fmt.Fprintln(out, tb.Deployment.RenderStatus())
		return nil
	}

	if *resume != "" {
		// Continue a killed run: the run file carries the placement, the
		// workload, the bridge clock and every worker's snapshot.
		res, err := exp.ResumeScenario(ctx, tb, *resume)
		if err != nil {
			return fmt.Errorf("resume: %w", err)
		}
		report(out, tb, res, *observe)
		return nil
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
		return fmt.Errorf("unknown placement %q (want cpu-only, local-gpu, remote-gpu, jungle or sc11-worst-case)", *placement)
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
			return fmt.Errorf("run: %w (last completed iteration is checkpointed in %s; continue with -resume)", err, *checkpoint)
		}
		return fmt.Errorf("run: %w", err)
	}
	report(out, tb, res, *observe)
	return nil
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

// runAttached is the thin-client path: attach a session on a running
// jungled (waiting in its admission queue if the plane is full), submit
// the workload as one session_run op, report, and detach.
func runAttached(out io.Writer, addr, session string, stars, gas, iters int, keep bool) error {
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
		fmt.Fprintf(out, "session %s resumed from its eviction snapshot\n", att.Session)
	} else {
		fmt.Fprintf(out, "session %s attached (%s)\n", att.Session, att.State)
	}
	work := exp.SessionWork{
		W:          exp.Workload{Stars: stars, Gas: gas, GasFrac: 0.9, Seed: 42, DT: 1.0 / 64, Eps: 0.05},
		Iterations: iters,
	}
	reply, err := c.Run(kernel.Encode(work))
	if err != nil {
		return err
	}
	var rep exp.SessionReport
	if err := kernel.Decode(reply, &rep); err != nil {
		return err
	}
	res := rep.Result
	fmt.Fprintf(out, "session %s: %d iterations, %v per iteration (setup %v, %d supernovae, state %016x)\n",
		session, res.Iterations, res.PerIteration, res.Setup, res.Supernovae, res.StateDigest)
	st, err := c.Detach(!keep)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "detached (session %s)\n", st)
	return nil
}

func report(out io.Writer, tb *core.Testbed, res exp.RunResult, observe bool) {
	fmt.Fprintf(out, "placement %s: %v per iteration (setup %v, %d supernovae, %s)\n",
		res.Scenario, res.PerIteration, res.Setup, res.Supernovae, res.Calls.String())
	fmt.Fprintln(out)
	fmt.Fprintln(out, tb.Deployment.RenderStatus())
	if observe {
		fmt.Fprintln(out, tb.Recorder.RenderCalls())
		fmt.Fprintln(out, tb.Recorder.RenderHealth())
	}
}
