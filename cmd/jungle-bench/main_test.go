package main

import (
	"fmt"
	"runtime"
	"strings"
)

// pin runs one command line at GOMAXPROCS 1, 2 and 8 and prints what the
// first run printed, then its error. A run that printed anything else is
// printed after it, so an Example's // Output: holds the invocation's
// whole output and holds it to be the same at every GOMAXPROCS. Trailing
// blanks are cut from each line: a comment cannot hold them.
func pin(args ...string) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var first string
	for i, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		var b strings.Builder
		if err := run(args, &b); err != nil {
			fmt.Fprintf(&b, "error: %v\n", err)
		}
		got := trimLines(b.String())
		if i == 0 {
			first = got
			fmt.Print(first)
		} else if got != first {
			fmt.Printf("at GOMAXPROCS %d:\n%s", procs, got)
		}
	}
}

// Positional ids replace the -e default: the overlay and the calling
// sequence run alone, not every experiment and then these two.
func Example_positionalIDs() {
	pin("e3", "e6")
	// Output:
	// == E3 SmartSockets overlay (Fig. 10): hub link types ==
	// link type   count
	// direct      0
	// ssh-tunnel  10
	// one-way     0
	// overlay connected: true
	//
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
	// == E6 integrator calling sequence (Fig. 7) ==
	//   bridge.step t=0
	//   coupler.field gas->stars (fi)
	//   coupler.field stars->gas (fi)
	//   stars.kick dt=0.015625
	//   gas.kick dt=0.015625
	//   stars.evolve t=0.03125 || gas.evolve t=0.03125
	//   coupler.field gas->stars (fi)
	//   coupler.field stars->gas (fi)
	//   stars.kick dt=0.015625
	//   gas.kick dt=0.015625
	//   stellar.evolve t=0.03125
}

// An id the command does not know is an error that lists the ones it
// does, and nothing runs — not even the known e3 before it.
func Example_unknownID() {
	pin("-e", "e3,bogus")
	pin("-e", "e11")
	// Output:
	// error: unknown experiment id "bogus" (want e1, e2, e3, e4, e5, e6, e7, e8, e9, e10, ablations or all)
	// error: unknown experiment id "e11" (want e1, e2, e3, e4, e5, e6, e7, e8, e9, e10, ablations or all)
}

func trimLines(s string) string {
	lines := strings.Split(s, "\n")
	for i, l := range lines {
		lines[i] = strings.TrimRight(l, " ")
	}
	return strings.Join(lines, "\n")
}
