package main

import (
	"context"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"jungle/internal/core"
	"jungle/internal/core/kernel"
	"jungle/internal/exp"
	"jungle/internal/sched"
)

// pin runs script at GOMAXPROCS 1, 2 and 8 and prints what the first run
// printed. A run that printed anything else is printed after it, so an
// Example's // Output: holds the script's whole output and holds it to be
// the same at every GOMAXPROCS. Trailing blanks are cut from each line: a
// comment cannot hold them.
func pin(script func(out io.Writer)) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var first string
	for i, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		var b strings.Builder
		script(&b)
		lines := strings.Split(b.String(), "\n")
		for i, l := range lines {
			lines[i] = strings.TrimRight(l, " ")
		}
		got := strings.Join(lines, "\n")
		if i == 0 {
			first = got
			fmt.Print(first)
		} else if got != first {
			fmt.Printf("at GOMAXPROCS %d:\n%s", procs, got)
		}
	}
}

// invoke runs one command line, printing its output and then its error.
func invoke(out io.Writer, args ...string) {
	if err := run(args, out); err != nil {
		fmt.Fprintf(out, "error: %v\n", err)
	}
}

// scratchDir makes a directory for one script's files; the script removes
// it.
func scratchDir() string {
	dir, err := os.MkdirTemp("", "amuse-run-test")
	if err != nil {
		panic(err)
	}
	return dir
}

// One bridge iteration of the jungle placement, then the deployment's
// status: every worker's job has ended by the time the table is printed.
func Example_placement() {
	pin(func(out io.Writer) {
		invoke(out, "-placement", "jungle", "-stars", "50", "-gas", "500", "-iters", "1")
	})
	// Output:
	// placement jungle: 74.698752ms per iteration (setup 10.652288ms, 0 supernovae, 33 calls, rpc p50 4.194ms / p99 16.777ms)
	//
	// resources:
	//   das4-tud     sge      das4-tud.fe            nodes=2 occupied=0 +gpu:gtx480
	//   das4-uva     sge      das4-uva.fe            nodes=1 occupied=0
	//   das4-vu      sge      das4-vu.fe             nodes=8 occupied=0
	//   desktop      local    desktop                nodes=1 occupied=0 +gpu:9600gt
	//   lgm          ssh      lgm                    nodes=1 occupied=0 +gpu:c2050
	// jobs:
	//   finished: 0 stopped, 0 failed, 4 canceled
	// SmartSockets overlay
	// hubs:
	//   das4-tud.fe
	//   das4-uva.fe
	//   das4-vu.fe
	//   desktop
	//   lgm
	// links:
	//   das4-tud.fe                <-> das4-uva.fe                [ssh-tunnel]
	//   das4-tud.fe                <-> das4-vu.fe                 [ssh-tunnel]
	//   das4-tud.fe                <-> desktop                    [ssh-tunnel]
	//   das4-tud.fe                <-> lgm                        [ssh-tunnel]
	//   das4-uva.fe                <-> das4-vu.fe                 [ssh-tunnel]
	//   das4-uva.fe                <-> desktop                    [ssh-tunnel]
	//   das4-uva.fe                <-> lgm                        [ssh-tunnel]
	//   das4-vu.fe                 <-> desktop                    [direct]
	//   das4-vu.fe                 <-> lgm                        [ssh-tunnel]
	//   desktop                    <-> lgm                        [ssh-tunnel]
}

// The same run with -observe: the plane's per-method call latencies and
// the link-health table, all in virtual time.
func Example_observe() {
	pin(func(out io.Writer) {
		invoke(out, "-placement", "jungle", "-stars", "50", "-gas", "500", "-iters", "1", "-observe")
	})
	// Output:
	// placement jungle: 74.698752ms per iteration (setup 10.652288ms, 0 supernovae, 33 calls, rpc p50 4.194ms / p99 16.777ms)
	//
	// resources:
	//   das4-tud     sge      das4-tud.fe            nodes=2 occupied=0 +gpu:gtx480
	//   das4-uva     sge      das4-uva.fe            nodes=1 occupied=0
	//   das4-vu      sge      das4-vu.fe             nodes=8 occupied=0
	//   desktop      local    desktop                nodes=1 occupied=0 +gpu:9600gt
	//   lgm          ssh      lgm                    nodes=1 occupied=0 +gpu:c2050
	// jobs:
	//   finished: 0 stopped, 0 failed, 4 canceled
	// SmartSockets overlay
	// hubs:
	//   das4-tud.fe
	//   das4-uva.fe
	//   das4-vu.fe
	//   desktop
	//   lgm
	// links:
	//   das4-tud.fe                <-> das4-uva.fe                [ssh-tunnel]
	//   das4-tud.fe                <-> das4-vu.fe                 [ssh-tunnel]
	//   das4-tud.fe                <-> desktop                    [ssh-tunnel]
	//   das4-tud.fe                <-> lgm                        [ssh-tunnel]
	//   das4-uva.fe                <-> das4-vu.fe                 [ssh-tunnel]
	//   das4-uva.fe                <-> desktop                    [ssh-tunnel]
	//   das4-uva.fe                <-> lgm                        [ssh-tunnel]
	//   das4-vu.fe                 <-> desktop                    [direct]
	//   das4-vu.fe                 <-> lgm                        [ssh-tunnel]
	//   desktop                    <-> lgm                        [ssh-tunnel]
	//
	// SESSION      MODEL          METHOD                CALLS   ERRS        P50        P90        P99        MAX      FLOOR
	// -            coupling       accept_state              8      0    4.892ms    4.892ms    4.892ms    4.892ms      2.4ms
	// -            coupling       field_staged              4      0    8.389ms    8.772ms    8.772ms    8.772ms      2.4ms
	// -            coupling       setup                     1      0    2.441ms    2.441ms    2.441ms    2.441ms      2.4ms
	// -            gravity        evolve                    1      0    7.059ms    7.059ms    7.059ms    7.059ms      2.2ms
	// -            gravity        get_state                 1      0    2.266ms    2.266ms    2.266ms    2.266ms      2.2ms
	// -            gravity        kick                      2      0    2.253ms    2.253ms    2.253ms    2.253ms      2.2ms
	// -            gravity        offer_state               4      0    7.282ms    7.282ms    7.282ms    7.282ms      2.2ms
	// -            gravity        set_particles             1      0     2.27ms     2.27ms     2.27ms     2.27ms      2.2ms
	// -            gravity        setup                     1      0    2.241ms    2.241ms    2.241ms    2.241ms      2.2ms
	// -            hydro          evolve                    1      0   38.101ms   38.101ms   38.101ms   38.101ms      400µs
	// -            hydro          kick                      2      0      562µs      562µs      562µs      562µs      400µs
	// -            hydro          offer_state               4      0    3.688ms    3.688ms    3.688ms    3.688ms      400µs
	// -            hydro          set_particles             1      0      815µs      815µs      815µs      815µs      400µs
	// -            hydro          setup                     1      0      441µs      441µs      441µs      441µs      400µs
	// -            stellar        setup                     1      0    2.445ms    2.445ms    2.445ms    2.445ms      2.4ms
	//
	// FROM                         TO                            TRANSFERS(dir/hp/fb)
	// das4-vu.node00               das4-tud.node00               4/0/0
	// lgm                          das4-tud.node00               4/0/0
}

// killedAfter rewrites the run file at path to the one a run asked for
// iterations, killed once the file's completed ones were checkpointed,
// leaves.
func killedAfter(path string, iterations int) {
	b, err := os.ReadFile(path)
	if err != nil {
		panic(err)
	}
	var rc exp.RunCheckpoint
	if err := kernel.Decode(b, &rc); err != nil {
		panic(err)
	}
	rc.Iterations = iterations
	if err := os.WriteFile(path, kernel.Encode(&rc), 0o644); err != nil {
		panic(err)
	}
}

// A checkpointed run, killed after its first of two iterations, continues
// with -resume. A later run that fails before its first iteration wrote
// nothing at the path, so the file there — the previous run's — is not
// offered for resume.
func Example_checkpointResume() {
	pin(func(out io.Writer) {
		dir := scratchDir()
		defer os.RemoveAll(dir)
		ckpt := filepath.Join(dir, "run.ckpt")
		invoke(out, "-testbed", "sc11", "-placement", "sc11-worst-case", "-stars", "50", "-gas", "500", "-iters", "1", "-checkpoint", ckpt)
		killedAfter(ckpt, 2)
		invoke(out, "-testbed", "sc11", "-resume", ckpt)
		invoke(out, "-testbed", "sc11", "-resume", ckpt)
		invoke(out, "-testbed", "sc11", "-placement", "sc11-worst-case", "-stars", "0", "-gas", "500", "-checkpoint", ckpt)
	})
	// Output:
	// placement sc11-worst-case: 722.259331ms per iteration (setup 494.474423ms, 0 supernovae, 37 calls, rpc p50 118.722ms / p99 118.722ms)
	//
	// resources:
	//   das4-tud     sge      das4-tud.fe            nodes=2 occupied=0 +gpu:gtx480
	//   das4-uva     sge      das4-uva.fe            nodes=1 occupied=0
	//   das4-vu      sge      das4-vu.fe             nodes=8 occupied=0
	//   laptop       local    laptop                 nodes=1 occupied=0
	//   lgm          ssh      lgm                    nodes=1 occupied=0 +gpu:c2050
	// jobs:
	//   finished: 0 stopped, 0 failed, 4 canceled
	// SmartSockets overlay
	// hubs:
	//   das4-tud.fe
	//   das4-uva.fe
	//   das4-vu.fe
	//   laptop
	//   lgm
	// links:
	//   das4-tud.fe                <-> das4-uva.fe                [ssh-tunnel]
	//   das4-tud.fe                <-> das4-vu.fe                 [ssh-tunnel]
	//   das4-tud.fe                <-> laptop                     [ssh-tunnel]
	//   das4-tud.fe                <-> lgm                        [ssh-tunnel]
	//   das4-uva.fe                <-> das4-vu.fe                 [ssh-tunnel]
	//   das4-uva.fe                <-> laptop                     [ssh-tunnel]
	//   das4-uva.fe                <-> lgm                        [ssh-tunnel]
	//   das4-vu.fe                 <-> laptop                     [ssh-tunnel]
	//   das4-vu.fe                 <-> lgm                        [ssh-tunnel]
	//   laptop                     <-> lgm                        [ssh-tunnel]
	//
	// placement sc11-worst-case (resumed): 729.866571ms per iteration (setup 1.877298891s, 0 supernovae, 39 calls, rpc p50 126.316ms / p99 126.316ms)
	//
	// resources:
	//   das4-tud     sge      das4-tud.fe            nodes=2 occupied=0 +gpu:gtx480
	//   das4-uva     sge      das4-uva.fe            nodes=1 occupied=0
	//   das4-vu      sge      das4-vu.fe             nodes=8 occupied=0
	//   laptop       local    laptop                 nodes=1 occupied=0
	//   lgm          ssh      lgm                    nodes=1 occupied=0 +gpu:c2050
	// jobs:
	//   finished: 0 stopped, 0 failed, 4 canceled
	// SmartSockets overlay
	// hubs:
	//   das4-tud.fe
	//   das4-uva.fe
	//   das4-vu.fe
	//   laptop
	//   lgm
	// links:
	//   das4-tud.fe                <-> das4-uva.fe                [ssh-tunnel]
	//   das4-tud.fe                <-> das4-vu.fe                 [ssh-tunnel]
	//   das4-tud.fe                <-> laptop                     [ssh-tunnel]
	//   das4-tud.fe                <-> lgm                        [ssh-tunnel]
	//   das4-uva.fe                <-> das4-vu.fe                 [ssh-tunnel]
	//   das4-uva.fe                <-> laptop                     [ssh-tunnel]
	//   das4-uva.fe                <-> lgm                        [ssh-tunnel]
	//   das4-vu.fe                 <-> laptop                     [ssh-tunnel]
	//   das4-vu.fe                 <-> lgm                        [ssh-tunnel]
	//   laptop                     <-> lgm                        [ssh-tunnel]
	//
	// error: resume: exp: run sc11-worst-case already complete (2/2 iterations)
	// error: run: ic: invalid cluster spec: 0 stars, 500 gas
}

// A resource from an IbisDeploy configuration file joins the testbed.
func Example_configList() {
	pin(func(out io.Writer) {
		dir := scratchDir()
		defer os.RemoveAll(dir)
		conf := filepath.Join(dir, "resources.conf")
		text := "# half of the VU cluster as a resource of its own\n" +
			"[resource vu-half]\nmiddleware = sge\nfrontend = das4-vu.fe\n" +
			"nodes = das4-vu.node04, das4-vu.node05\ncpu = xeon 5.0 8\n"
		if err := os.WriteFile(conf, []byte(text), 0o644); err != nil {
			panic(err)
		}
		invoke(out, "-config", conf, "-list")
	})
	// Output:
	// added resource vu-half (sge on das4-vu.fe)
	// resources:
	//   das4-tud     sge      das4-tud.fe            nodes=2 occupied=0 +gpu:gtx480
	//   das4-uva     sge      das4-uva.fe            nodes=1 occupied=0
	//   das4-vu      sge      das4-vu.fe             nodes=8 occupied=0
	//   desktop      local    desktop                nodes=1 occupied=0 +gpu:9600gt
	//   lgm          ssh      lgm                    nodes=1 occupied=0 +gpu:c2050
	//   vu-half      sge      das4-vu.fe             nodes=2 occupied=0
	// jobs:
	//   finished: 0 stopped, 0 failed, 0 canceled
	// SmartSockets overlay
	// hubs:
	//   das4-tud.fe
	//   das4-uva.fe
	//   das4-vu.fe
	//   desktop
	//   lgm
	// links:
	//   das4-tud.fe                <-> das4-uva.fe                [ssh-tunnel]
	//   das4-tud.fe                <-> das4-vu.fe                 [ssh-tunnel]
	//   das4-tud.fe                <-> desktop                    [ssh-tunnel]
	//   das4-tud.fe                <-> lgm                        [ssh-tunnel]
	//   das4-uva.fe                <-> das4-vu.fe                 [ssh-tunnel]
	//   das4-uva.fe                <-> desktop                    [ssh-tunnel]
	//   das4-uva.fe                <-> lgm                        [ssh-tunnel]
	//   das4-vu.fe                 <-> desktop                    [direct]
	//   das4-vu.fe                 <-> lgm                        [ssh-tunnel]
	//   desktop                    <-> lgm                        [ssh-tunnel]
}

// servePlane serves a control plane on a loopback listener, wired as
// jungled wires it with its default flags, and returns its address and
// the function that stops it.
func servePlane() (string, func()) {
	tb, err := core.NewLabTestbed()
	if err != nil {
		panic(err)
	}
	s := sched.New(tb.Daemon, sched.Config{
		MaxLive: 4, QueueCap: 8, LeaseTTL: 30 * time.Second,
		Recorder: tb.Recorder, Run: exp.SessionRunner(),
	})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		panic(err)
	}
	g := &sched.Gateway{Sched: s, Ctx: context.Background()}
	served := make(chan error)
	go func() { served <- g.Serve(l) }()
	return l.Addr().String(), func() {
		l.Close()
		<-served
		s.Shutdown()
		tb.Close()
	}
}

// The thin client: attach a named session, run it and detach with -keep,
// then attach again and continue the same session.
func Example_attach() {
	pin(func(out io.Writer) {
		addr, stop := servePlane()
		defer stop()
		invoke(out, "-attach", addr)
		invoke(out, "-attach", addr, "-session", "mine", "-stars", "50", "-gas", "500", "-iters", "1", "-keep")
		invoke(out, "-attach", addr, "-session", "mine", "-iters", "1")
	})
	// Output:
	// error: -attach requires -session
	// session mine attached (running)
	// session mine: 1 iterations, 453.637042ms per iteration (setup 10.852242ms, 0 supernovae, state 35c659135e1daa67)
	// detached (session running)
	// session mine attached (running)
	// session mine: 2 iterations, 482.939692ms per iteration (setup 10.852242ms, 0 supernovae, state 78e173514470b4e1)
	// detached (session closed)
}
