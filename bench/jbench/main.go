// Command jbench is the repository's benchmark driver: it runs one workload
// in a fresh process with one closed-loop client goroutine, a fixed op
// count and GOMAXPROCS pinned, checks the program's outputs, and
// prints every metric by name and unit. See ../README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"

	// Worker kinds register themselves on import.
	_ "jungle/internal/kernels"
)

// nominalSeconds is BENCHMARK.json's run_seconds: the op counts in the
// workload table are what -seconds of that value runs. The counts are
// fixed, never a duration: -seconds only scales them.
const nominalSeconds = 20

var workloads = []*workload{coupledStep, rpcKick, bulkState, sessionChurn}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// metric is one reported number.
type metric struct {
	name, unit string
	value      float64
}

// result is the last line a run prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	var (
		name      = flag.String("workload", "", "workload to run: coupled_step, rpc_kick, bulk_state or session_churn")
		seed      = flag.Int64("seed", 1, "seed the workload's inputs are generated from")
		seconds   = flag.Float64("seconds", nominalSeconds, "scales the fixed op counts; the table's counts are for "+strconv.Itoa(nominalSeconds))
		traced    = flag.Int("trace", 0, "1 makes the traced run and prints the per-layer metrics instead")
		short     = flag.Bool("short", false, "about 1% of the op counts and 3 set-ups, for smoke use")
		all       = flag.Bool("all", false, "run the four workloads in turn, each in a fresh process")
		selfcheck = flag.Bool("selfcheck", false, "run every workload as two interleaved sets of runs and compare them against the bounds")
		runs      = flag.Int("runs", 5, "runs per set for -selfcheck")
	)
	flag.Parse()
	if flag.NArg() > 0 || *traced < 0 || *traced > 1 {
		fmt.Fprintln(os.Stderr, "jbench: -trace takes 0 or 1, and there are no positional arguments")
		os.Exit(2)
	}

	switch {
	case *selfcheck:
		os.Exit(selfCheck(*runs, *seed, *seconds))
	case *all:
		for _, w := range workloads {
			if _, err := runChild(os.Stdout, w.name, *seed, *seconds, *traced, *short); err != nil {
				fmt.Fprintln(os.Stderr, "jbench:", err)
				os.Exit(1)
			}
		}
		return
	}
	w := findWorkload(*name)
	if w == nil {
		fmt.Fprintf(os.Stderr, "jbench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	// GOMAXPROCS is pinned per workload, so that a run on a larger host
	// schedules the jungle's goroutines the way the 2-core reference box
	// does.
	runtime.GOMAXPROCS(w.procs)
	scale := *seconds / nominalSeconds
	cycles := setupCycles
	if *short {
		scale, cycles = 0.01, 3
	}
	var (
		res result
		ms  []metric
		err error
	)
	if *traced == 1 {
		res, ms, err = runTraced(w, *seed, scale, cycles)
	} else {
		res, ms, err = runEndToEnd(w, *seed, scale, cycles)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "jbench: %s: %v\n", w.name, err)
		os.Exit(1)
	}
	report(w, res, ms)
	if !res.Correct {
		os.Exit(1)
	}
}

// report prints the metrics as a table and then the result as one line of
// JSON, which is the last line of the output.
func report(w *workload, res result, ms []metric) {
	fmt.Printf("workload %s  GOMAXPROCS %d  %s\n", w.name, runtime.GOMAXPROCS(0), runtime.Version())
	fmt.Printf("ops_attempted %d  ops_failed %d  correct %v\n", res.Attempted, res.Failed, res.Correct)
	res.Metrics = make(map[string]metricValue, len(ms))
	for _, m := range ms {
		fmt.Printf("  %-40s %18.6f %s\n", m.name, m.value, m.unit)
		res.Metrics[m.name] = metricValue{Value: m.value, Unit: m.unit}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "jbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// scaled applies the run's scale to a sample count, keeping at least min.
func scaled(n int, scale float64, min int) int {
	if s := int(float64(n)*scale + 0.5); s > min {
		return s
	}
	return min
}

// runEndToEnd is the untraced run: set-up cycles, warm-up, the timed ops,
// the checks, and the seven end-to-end metrics.
func runEndToEnd(w *workload, seed int64, scale float64, cycles int) (result, []metric, error) {
	warm := scaled(w.warm, scale, 1)
	setUp, err := w.prepare(seed, warm)
	if err != nil {
		return result{}, nil, fmt.Errorf("prepare inputs: %w", err)
	}
	if err := coldRun(setUp, warm); err != nil {
		return result{}, nil, err
	}
	inst, su, err := bringUp(setUp, cycles, nil)
	if err != nil {
		return result{}, nil, err
	}
	defer inst.close(nil)
	ph, err := runOps(w, inst, warm, scaled(w.timed, scale, 2), nil)
	if err != nil {
		return result{}, nil, err
	}
	failed := inst.failed()
	ops := float64(ph.ops)
	ms := []metric{
		{"setup_s", "s", quantile(sorted(su.wallS), 0.25)},
		{"setup_virtual_ms", "virtual-ms", su.virtualMs},
		{"op_wall_us", "us", quietQuartile(ph.wallUs)},
		{"op_virtual_us", "virtual-us", float64(ph.delta.virtual) / 1e3 / ops},
		{"op_allocs", "count", float64(ph.delta.mallocs) / ops},
		{"op_alloc_kb", "KB", float64(ph.delta.allocBytes) / 1024 / ops},
		{"heap_live_mb", "MB", float64(ph.heapTo) / (1 << 20)},
	}
	return result{Correct: failed == 0, Attempted: ph.ops, Failed: failed}, ms, nil
}

// runChild runs one workload in a fresh process of this binary, copying its
// output to out, and returns the result line it printed.
func runChild(out *os.File, name string, seed int64, seconds float64, traced int, short bool) (result, error) {
	exe, err := os.Executable()
	if err != nil {
		return result{}, err
	}
	args := []string{"-workload", name, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", strconv.Itoa(traced)}
	if short {
		args = append(args, "-short")
	}
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	b, err := cmd.Output()
	if out != nil {
		out.Write(b)
	}
	if err != nil {
		return result{}, fmt.Errorf("%s: %w", name, err)
	}
	return lastLineResult(b)
}

// lastLineResult parses the JSON object on the last line of a run's output.
func lastLineResult(out []byte) (result, error) {
	end := len(out)
	for end > 0 && out[end-1] == '\n' {
		end--
	}
	start := end
	for start > 0 && out[start-1] != '\n' {
		start--
	}
	var res result
	if err := json.Unmarshal(out[start:end], &res); err != nil {
		return res, fmt.Errorf("result line: %w", err)
	}
	return res, nil
}
