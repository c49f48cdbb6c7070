// Command jungled is the stand-alone daemon process of §5, grown into a
// long-lived multi-tenant control plane: "The user must start this daemon
// on his or her machine before running any simulation, but it can be
// re-used for all simulations run" — and here the re-use is concurrent.
// One jungled serves many attached clients at once, each bound to an
// isolated session (disjoint worker-id blocks, per-session accounting and
// checkpoint stores), with admission control, fair-share placement and
// lease-based idle reaping between them.
//
// Clients attach with amuse-run -attach <addr> -session <id>. The wire
// protocol is the daemon channel's length-prefixed framing carrying
// control envelopes (sched.Gateway); a frame that is not one is answered
// with a structured error. The §5 loopback measurement is jungle-bench
// -e e7.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"os"
	"sync"
	"time"

	"jungle/internal/core"
	"jungle/internal/exp"
	"jungle/internal/sched"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run parses args as the command line and serves the control plane on
// -listen until the listener fails.
func run(args []string, out io.Writer) error {
	return serve(args, out, nil)
}

// serve is run on listener l, or on -listen when l is nil. It returns
// when the listener is closed or fails.
func serve(args []string, out io.Writer, l net.Listener) error {
	fs := flag.NewFlagSet("jungled", flag.ContinueOnError)
	listen := fs.String("listen", "127.0.0.1:17979", "loopback address to serve")
	testbed := fs.String("testbed", "lab", "lab | sc11 (resources the sessions share)")
	maxLive := fs.Int("max-sessions", 4, "concurrent running sessions (admission control)")
	queueCap := fs.Int("queue", 8, "admission queue bound")
	leaseTTL := fs.Duration("lease", 30*time.Second, "idle-session lease; expired sessions are checkpointed and preempted")
	reapEvery := fs.Duration("reap-every", 5*time.Second, "how often to sweep for expired leases (0 disables)")
	statusEvery := fs.Duration("status-every", 0, "how often to log the deployment status and the observability plane (sessions, link health, call histograms; 0 disables)")
	if err := fs.Parse(args); err != nil {
		return err
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

	s := sched.New(tb.Daemon, sched.Config{
		MaxLive:  *maxLive,
		QueueCap: *queueCap,
		LeaseTTL: *leaseTTL,
		Recorder: tb.Recorder,
		Run:      exp.SessionRunner(),
	})
	defer s.Shutdown()

	// The housekeeping goroutines end, and are waited for, before the
	// scheduler shuts down.
	var wg sync.WaitGroup
	defer wg.Wait()
	ctx, stop := context.WithCancel(context.Background())
	defer stop()
	every := func(d time.Duration, f func()) {
		if d <= 0 {
			return
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			t := time.NewTicker(d)
			defer t.Stop()
			for {
				select {
				case <-t.C:
					f()
				case <-ctx.Done():
					return
				}
			}
		}()
	}
	every(*reapEvery, func() {
		if reaped, err := s.ReapIdle(ctx); err != nil {
			log.Printf("reap: %v", err)
		} else if len(reaped) > 0 {
			log.Printf("reaped idle sessions %v", reaped)
		}
	})
	every(*statusEvery, func() {
		// The deployment's resource lines show the nodes its jobs occupy.
		log.Printf("status: %d worker-id blocks held\n%s\n%s\n%s\n%s",
			tb.Daemon.SessionBlocks(),
			tb.Deployment.RenderStatus(),
			tb.Recorder.RenderSessions(),
			tb.Recorder.RenderHealth(),
			tb.Recorder.RenderCalls())
	})

	if l == nil {
		if l, err = net.Listen("tcp", *listen); err != nil {
			return fmt.Errorf("listen: %w", err)
		}
	}
	fmt.Fprintf(out, "jungled: control plane on %s (max %d sessions, lease %v)\n", l.Addr(), *maxLive, *leaseTTL)
	g := &sched.Gateway{Sched: s, Ctx: ctx}
	if err := g.Serve(l); err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	return nil
}
