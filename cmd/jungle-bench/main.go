// Command jungle-bench regenerates the paper's evaluation: every table and
// figure of §6 has an experiment id (see DESIGN.md §4). Examples:
//
//	jungle-bench -e e1 -scale 1 -iters 1     # §6.2 lab table at full scale
//	jungle-bench -e e3,e6,e7                 # overlay, call sequence, loopback
//	jungle-bench -e all -scale 0.1           # everything, reduced workload
//	jungle-bench ablations                   # design ablations (DESIGN.md §6)
//
// An id it does not know is an error that lists the ones it does, and
// nothing runs.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"slices"
	"strings"

	"jungle/internal/exp"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// experiment is one runnable id. An explicit one is not a paper artifact
// and runs only when named, never as part of "all".
type experiment struct {
	id       string
	explicit bool
	run      func(scale float64, iters int) (string, error)
}

// experiments are the ids in the order they run.
var experiments = []experiment{
	{id: "e1", run: func(scale float64, iters int) (string, error) {
		table, _, err := exp.E1(scale, iters)
		return table, err
	}},
	{id: "e2", run: exp.E2},
	{id: "e3", run: func(float64, int) (string, error) { return exp.E3() }},
	{id: "e4", run: func(scale float64, _ int) (string, error) { return exp.E4(scale) }},
	{id: "e5", run: func(float64, int) (string, error) {
		table, _, err := exp.E5(100, 1000, 2.0)
		return table, err
	}},
	{id: "e6", run: func(float64, int) (string, error) {
		out, _, err := exp.E6()
		return out, err
	}},
	{id: "e7", run: func(float64, int) (string, error) {
		res, err := exp.RunE7(256<<20, 1<<20, 500)
		if err != nil {
			return "", err
		}
		return exp.E7Report(res), nil
	}},
	{id: "e8", run: func(_ float64, iters int) (string, error) { return exp.E8(iters) }},
	{id: "e9", run: func(float64, int) (string, error) { return exp.E9(512, 8) }},
	{id: "e10", run: func(float64, int) (string, error) { return exp.E10(64, 24) }},
	// Design ablations (DESIGN.md §6).
	{id: "ablations", explicit: true, run: func(float64, int) (string, error) {
		var tables []string
		var errs []error
		for _, fn := range []func() (string, error){
			func() (string, error) { t, _, err := exp.AblateTheta(2000, 200); return t, err },
			func() (string, error) { t, _, err := exp.AblateBridgeDT(30, 150, 0.5); return t, err },
			func() (string, error) { t, _, err := exp.AblateChannels(); return t, err },
		} {
			t, err := fn()
			tables, errs = append(tables, t), append(errs, err)
		}
		return strings.Join(tables, "\n"), errors.Join(errs...)
	}},
}

// run parses args as the command line and runs the experiments it names,
// printing their reports to out. Positional ids work too (`jungle-bench
// ablations`); naming any replaces the -e default, so that runs the
// ablations alone, not "all" plus them.
func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("jungle-bench", flag.ContinueOnError)
	ids := fs.String("e", "all", "comma-separated experiment ids (e1..e10, ablations, all)")
	scale := fs.Float64("scale", 1.0, "workload scale (1.0 = calibrated paper workload)")
	iters := fs.Int("iters", 1, "bridge iterations per measurement")
	if err := fs.Parse(args); err != nil {
		return err
	}
	named := strings.Split(*ids, ",")
	if fs.NArg() > 0 {
		if *ids == "all" {
			named = nil
		}
		named = append(named, fs.Args()...)
	}

	want := map[string]bool{}
	known := []string{"all"}
	for _, e := range experiments {
		known = append(known, e.id)
	}
	for _, id := range named {
		id = strings.TrimSpace(strings.ToLower(id))
		if !slices.Contains(known, id) {
			return fmt.Errorf("unknown experiment id %q (want %s or all)", id, strings.Join(known[1:], ", "))
		}
		want[id] = true
	}

	var errs []error
	for _, e := range experiments {
		if !want[e.id] && (e.explicit || !want["all"]) {
			continue
		}
		report, err := e.run(*scale, *iters)
		if report != "" {
			fmt.Fprintln(out, report)
		}
		if err != nil {
			errs = append(errs, fmt.Errorf("%s failed: %w", e.id, err))
		}
	}
	return errors.Join(errs...)
}
