package main

import (
	"fmt"
	"io"
	"net"
	"runtime"
	"strings"

	"jungle/internal/core/kernel"
	"jungle/internal/exp"
	"jungle/internal/sched"
)

// pin runs script at GOMAXPROCS 1, 2 and 8 and prints what the first run
// printed. A run that printed anything else is printed after it, so an
// Example's // Output: holds the script's whole output and holds it to be
// the same at every GOMAXPROCS.
func pin(script func(out io.Writer)) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var first string
	for i, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		var b strings.Builder
		script(&b)
		if i == 0 {
			first = b.String()
			fmt.Print(first)
		} else if b.String() != first {
			fmt.Printf("at GOMAXPROCS %d:\n%s", procs, b.String())
		}
	}
}

// session attaches id through a client of the daemon at addr, runs one
// bridge iteration of a small workload in it and closes it, printing each
// reply.
func session(out io.Writer, addr, id string) {
	c, err := sched.Dial(addr)
	if err != nil {
		fmt.Fprintln(out, err)
		return
	}
	defer c.Close()
	att, err := c.Attach(id, false)
	if err != nil {
		fmt.Fprintf(out, "attach %s: %v\n", id, err)
		return
	}
	fmt.Fprintf(out, "attach %s: %s\n", att.Session, att.State)
	work := exp.SessionWork{
		W:          exp.Workload{Stars: 50, Gas: 500, GasFrac: 0.9, Seed: 42, DT: 1.0 / 64, Eps: 0.05},
		Iterations: 1,
	}
	reply, err := c.Run(kernel.Encode(work))
	if err != nil {
		fmt.Fprintf(out, "run %s: %v\n", id, err)
		return
	}
	var rep exp.SessionReport
	if err := kernel.Decode(reply, &rep); err != nil {
		fmt.Fprintf(out, "run %s: %v\n", id, err)
		return
	}
	res := rep.Result
	fmt.Fprintf(out, "run %s: %d iterations, %v per iteration, state %016x\n",
		id, res.Iterations, res.PerIteration, res.StateDigest)
	st, err := c.Detach(true)
	fmt.Fprintf(out, "detach %s: %s %v\n", id, st, err)
}

// The daemon serves a listener the test opens; sessions attach through
// it. With -max-sessions 1, a second tenant is refused while the first
// runs and admitted once it has closed. Closing the listener ends serve.
func Example_serve() {
	pin(func(out io.Writer) {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			fmt.Fprintln(out, err)
			return
		}
		var logged strings.Builder
		served := make(chan error)
		go func() { served <- serve([]string{"-max-sessions", "1"}, &logged, l) }()
		addr := l.Addr().String()

		first, err := sched.Dial(addr)
		if err != nil {
			fmt.Fprintln(out, err)
			return
		}
		if _, err := first.Attach("alpha", false); err != nil {
			fmt.Fprintln(out, err)
		}
		session(out, addr, "beta")
		if _, err := first.Detach(true); err != nil {
			fmt.Fprintln(out, err)
		}
		first.Close()
		session(out, addr, "beta")

		l.Close()
		err = <-served
		fmt.Fprint(out, strings.ReplaceAll(logged.String(), addr, "ADDR"))
		fmt.Fprintln(out, strings.ReplaceAll(err.Error(), addr, "ADDR"))
	})
	// Output:
	// attach beta: sched: control plane full (0 queued); retry after 500ms
	// attach beta: running
	// run beta: 1 iterations, 453.637042ms per iteration, state 35c659135e1daa67
	// detach beta: closed <nil>
	// jungled: control plane on ADDR (max 1 sessions, lease 30s)
	// serve: accept tcp ADDR: use of closed network connection
}
