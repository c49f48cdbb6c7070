// Command jungled is the stand-alone daemon process of §5, grown into a
// long-lived multi-tenant control plane: "The user must start this daemon
// on his or her machine before running any simulation, but it can be
// re-used for all simulations run" — and here the re-use is concurrent.
// One jungled serves many attached clients at once, each bound to an
// isolated session (disjoint worker-id blocks, per-session capacity
// accounting and checkpoint stores), with admission control, fair-share
// placement and lease-based idle reaping between them.
//
// Clients attach with amuse-run -attach <addr> -session <id>. The wire
// protocol stays the daemon channel's length-prefixed framing: control
// envelopes drive sessions, and frames that are not envelopes still echo,
// so the §5 loopback benchmark (-selftest reproduces its "over 8
// Gbit/second even on a modest laptop" measurement) runs unchanged
// against a multi-tenant daemon.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"time"

	"jungle/internal/core"
	"jungle/internal/exp"
	"jungle/internal/sched"
)

func main() {
	listen := flag.String("listen", "127.0.0.1:17979", "loopback address to serve")
	selftest := flag.Bool("selftest", false, "run the §5 loopback benchmark and exit")
	testbed := flag.String("testbed", "lab", "lab | sc11 (resources the sessions share)")
	maxLive := flag.Int("max-sessions", 4, "concurrent running sessions (admission control)")
	queueCap := flag.Int("queue", 8, "admission queue bound")
	leaseTTL := flag.Duration("lease", 30*time.Second, "idle-session lease; expired sessions are checkpointed and preempted")
	reapEvery := flag.Duration("reap-every", 5*time.Second, "how often to sweep for expired leases (0 disables)")
	statusEvery := flag.Duration("status-every", 0, "how often to log the observability plane (sessions, link health, call histograms; 0 disables)")
	flag.Parse()

	if *selftest {
		res, err := exp.RunE7(256<<20, 1<<20, 500)
		if err != nil {
			log.Fatalf("selftest: %v", err)
		}
		fmt.Print(exp.E7Report(res))
		if res.ThroughputGbit < 8 {
			os.Exit(1)
		}
		return
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

	s := sched.New(tb.Daemon, sched.Config{
		MaxLive:  *maxLive,
		QueueCap: *queueCap,
		LeaseTTL: *leaseTTL,
		Recorder: tb.Recorder,
		Run:      exp.SessionRunner(),
	})
	defer s.Shutdown()

	ctx := context.Background()
	if *reapEvery > 0 {
		go func() {
			for range time.Tick(*reapEvery) {
				if reaped, err := s.ReapIdle(ctx); err != nil {
					log.Printf("reap: %v", err)
				} else if len(reaped) > 0 {
					log.Printf("reaped idle sessions %v", reaped)
				}
			}
		}()
	}

	if *statusEvery > 0 {
		go func() {
			for range time.Tick(*statusEvery) {
				// Sessions span virtual clocks, so staleness marking is
				// off (-1): a link probed once by any tenant stays "ok".
				log.Printf("status: %d worker-id blocks held\n%s\n%s\n%s",
					tb.Daemon.SessionBlocks(),
					tb.Recorder.RenderSessions(),
					tb.Recorder.RenderHealth(-1),
					tb.Recorder.RenderCalls())
			}
		}()
	}

	l, err := net.Listen("tcp", *listen)
	if err != nil {
		log.Fatalf("listen: %v", err)
	}
	log.Printf("jungled: control plane on %s (max %d sessions, lease %v)",
		l.Addr(), *maxLive, *leaseTTL)
	g := &sched.Gateway{Sched: s, Ctx: ctx}
	if err := g.Serve(l); err != nil {
		log.Fatalf("serve: %v", err)
	}
}
