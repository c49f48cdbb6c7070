// Command ab compares the repository benchmark at a base revision against
// the working tree: it exports BASE into a temporary directory, runs
// `bash bench/run.sh --workload W --seed S+i --seconds 20 --trace 0` in both
// checkouts for i = 0 … PAIRS-1, alternating which side goes first, reads
// each run's last JSON line, and prints per end-to-end metric of
// BENCHMARK.json the base's and the change's median [q1–q3], how many pairs
// the change won, and the verdict against the metric's bound:
//
//	go run ./cmd/ab -base HEAD~1 -workload coupled_step -pairs 10 -seed 701
//
// -workload takes a comma-separated list, or all for every workload in
// BENCHMARK.json: they run in turn against the one export, each followed by
// its table. A verdict is "regression" when the change's median is worse
// than the base's by more than the bound, "gain" when it is better in at
// least nine pairs in ten and by more than the base's interquartile range,
// "identical" for a virtual-time metric that read the same in every pair,
// and "ok" otherwise. ab exits 1 when any workload regresses, and stops at
// the first run that fails, an op failing included (bench/run.sh then exits
// non-zero).
//
// Around every run ab times a fixed scalar loop in its own process, once
// before and once after, on as many goroutines as the host has cores, and
// takes the slowest reading (the reference: about 150 ms on a 2-core Xeon
// host), so that one busy process on any core shows. A pair is flagged
// when one side's two readings, or the two sides' means, differ by more
// than slowFraction: the host changed speed during the pair, as in its
// slow mode, where set-up wall time moves by up to 70 % with every virtual
// and allocation metric flat. Each workload's table is printed over all
// pairs, then over the unflagged pairs; the exit status follows the first.
// No metric is divided by the reference.
//
// The base is a `git archive` export, not a worktree: nothing is registered
// in the repository, and each checkout builds its own binary into its own
// .bench_build/.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// result is the last line a benchmark run prints.
type result struct {
	Metrics map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

// metric is one of BENCHMARK.json's end-to-end metrics.
type metric struct {
	Name   string  `json:"name"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func main() {
	base := flag.String("base", "", "revision to compare the working tree against (required)")
	workload := flag.String("workload", "coupled_step", "benchmark workload")
	pairs := flag.Int("pairs", 10, "pairs of runs")
	seed := flag.Int("seed", 1, "seed of the first pair; pair i runs seed+i")
	flag.Parse()
	if *base == "" || *pairs < 1 {
		fmt.Fprintln(os.Stderr, "ab: -base is required and -pairs must be positive")
		os.Exit(2)
	}
	if err := run(*base, *workload, *pairs, *seed); err != nil {
		fmt.Fprintln(os.Stderr, "ab:", err)
		os.Exit(1)
	}
}

func run(base, workload string, pairs, seed int) error {
	var spec struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []metric `json:"end_to_end"`
	}
	b, err := os.ReadFile("BENCHMARK.json")
	if err == nil {
		err = json.Unmarshal(b, &spec)
	}
	if err != nil {
		return err
	}
	workloads := strings.Split(workload, ",")
	if workload == "all" {
		workloads = workloads[:0]
		for _, w := range spec.Workloads {
			workloads = append(workloads, w.Name)
		}
	}
	rev, err := exec.Command("git", "rev-parse", "--verify", base+"^{commit}").Output()
	if err != nil {
		return fmt.Errorf("base %q: %w", base, err)
	}
	rev = bytes.TrimSpace(rev)
	dir, err := os.MkdirTemp("", "ab-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	if out, err := exec.Command("sh", "-c", `git archive "$0" | tar -x -C "$1"`, string(rev), dir).CombinedOutput(); err != nil {
		return fmt.Errorf("export %s: %v: %s", rev, err, out)
	}
	root, err := filepath.Abs(".")
	if err != nil {
		return err
	}
	var regressed []string
	for _, w := range workloads {
		fmt.Printf("ab: %s, base %.12s against the working tree, %d pairs from seed %d\n", w, rev, pairs, seed)
		bad, err := compare([2]string{dir, root}, w, spec.EndToEnd, pairs, seed)
		if err != nil {
			return err
		}
		regressed = append(regressed, bad...)
	}
	if len(regressed) > 0 {
		return fmt.Errorf("the change is worse than the base beyond a bound: %s", strings.Join(regressed, ", "))
	}
	return nil
}

// pair is one seed's run on each side, base first, and the reference
// loop's readings before and after each.
type pair struct {
	res [2]result
	ref [2][2]time.Duration
}

// compare runs one workload's pairs in the two checkouts, prints its tables
// and returns the metrics that regressed over all pairs, as
// "workload/metric".
func compare(sides [2]string, workload string, metrics []metric, pairs, seed int) (regressed []string, err error) {
	names := [2]string{"base", "change"}
	all := make([]pair, pairs)
	var steady []pair
	for i := range all {
		p := &all[i]
		for k := 0; k < 2; k++ {
			side := (i + k) % 2 // base first in even pairs, the change first in odd
			p.ref[side][0] = reference()
			res, err := benchRun(sides[side], workload, seed+i)
			p.ref[side][1] = reference()
			if err != nil {
				return nil, fmt.Errorf("%s pair %d, %s: %w", workload, i, names[side], err)
			}
			p.res[side] = res
			fmt.Printf("pair %d %-6s seed %d:", i, names[side], seed+i)
			for _, m := range metrics {
				fmt.Printf(" %s %.6g", m.Name, res.Metrics[m.Name].Value)
			}
			fmt.Printf(" reference %v/%v\n", p.ref[side][0].Round(time.Millisecond), p.ref[side][1].Round(time.Millisecond))
		}
		if slow(p.ref, slowFraction) {
			fmt.Printf("pair %d flagged: the reference loop's readings differ by more than %g%%\n", i, 100*slowFraction)
		} else {
			steady = append(steady, *p)
		}
	}
	fmt.Printf("%s, all %d pairs:\n", workload, pairs)
	regressed = table(workload, metrics, all)
	fmt.Printf("%s, the %d unflagged pairs:\n", workload, len(steady))
	if len(steady) > 0 {
		table(workload, metrics, steady)
	}
	return regressed, nil
}

// table prints, per metric, both sides' median [q1–q3] over pairs, the
// change's wins and the verdict, and returns the metrics that regressed.
func table(workload string, metrics []metric, pairs []pair) (regressed []string) {
	n := len(pairs)
	fmt.Printf("%-18s %-34s %-34s %8s %6s  %s\n", "metric", "base median [q1–q3]", "change median [q1–q3]", "change", "wins", "verdict")
	for _, m := range metrics {
		var x [2][]float64
		wins := 0
		for _, pr := range pairs {
			p, c := pr.res[0].Metrics[m.Name].Value, pr.res[1].Metrics[m.Name].Value
			x[0], x[1] = append(x[0], p), append(x[1], c)
			if (m.Better == "lower" && c < p) || (m.Better == "higher" && c > p) {
				wins++
			}
		}
		q, r := quartiles(x[0]), quartiles(x[1])
		move := 0.0
		if q[1] != 0 {
			move = (r[1] - q[1]) / q[1]
		}
		worse := move // the relative move in the bad direction
		if m.Better == "higher" {
			worse = -move
		}
		verdict := "ok"
		switch {
		case worse > m.Bound:
			verdict, regressed = "regression", append(regressed, workload+"/"+m.Name)
		case worse < 0 && 10*wins >= 9*n && math.Abs(r[1]-q[1]) > q[2]-q[0]:
			verdict = "gain"
		case strings.Contains(m.Name, "_virtual_") && slices.Equal(x[0], x[1]):
			verdict = "identical"
		}
		fmt.Printf("%-18s %-34s %-34s %+7.2f%% %3d/%-2d  %s (bound %g%%)\n",
			m.Name, spread(q), spread(r), 100*move, wins, n, verdict, 100*m.Bound)
	}
	return regressed
}

// slowFraction is how far a pair's reference readings may differ before
// the pair is flagged. On a quiet 2-core host, 48 readings spanned 135–167
// ms and back-to-back ones differed by up to 14 %; one busy process started
// beside the loop lengthened it by 35–70 %.
const slowFraction = 0.15

// slow reports whether a pair's reference readings, [side][before, after],
// differ by more than frac: one side's two readings, or the two sides'
// means.
func slow(ref [2][2]time.Duration, frac float64) bool {
	differ := func(a, b time.Duration) bool { return float64(max(a, b)) > (1+frac)*float64(min(a, b)) }
	return differ(ref[0][0], ref[0][1]) || differ(ref[1][0], ref[1][1]) ||
		differ(ref[0][0]+ref[0][1], ref[1][0]+ref[1][1])
}

// referenceSink keeps reference's loop from being optimised away.
var referenceSink atomic.Uint64

// reference times a fixed scalar loop — one dependent multiply-add per
// step, no memory traffic — on runtime.NumCPU() goroutines at once in this
// process, and returns the slowest: the speed of the host's slowest core
// between runs.
func reference() time.Duration {
	times := make([]time.Duration, runtime.NumCPU())
	var wg sync.WaitGroup
	for i := range times {
		wg.Add(1)
		go func() {
			defer wg.Done()
			t0 := time.Now()
			x := uint64(1)
			for j := 0; j < 100_000_000; j++ {
				x = x*6364136223846793005 + 1442695040888963407
			}
			referenceSink.Add(x)
			times[i] = time.Since(t0)
		}()
	}
	wg.Wait()
	return slices.Max(times)
}

// benchRun runs the benchmark in one checkout, for the 20 s the repository
// benchmark runs, and parses its last line.
func benchRun(dir, workload string, seed int) (result, error) {
	cmd := exec.Command("bash", "bench/run.sh", "--workload", workload, "--seed", strconv.Itoa(seed),
		"--seconds", "20", "--trace", "0")
	cmd.Dir, cmd.Stderr = dir, os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return result{}, fmt.Errorf("seed %d: %w", seed, err)
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var res result
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return res, fmt.Errorf("seed %d: result line: %w", seed, err)
	}
	return res, nil
}

// quartiles returns q1, the median and q3, interpolated at p·(n+1) like
// the benchmark's own statistics (Python's statistics.quantiles).
func quartiles(xs []float64) [3]float64 {
	s := slices.Sorted(slices.Values(xs))
	n := len(s)
	var q [3]float64
	for k, p := range []float64{0.25, 0.5, 0.75} {
		pos := min(max(p*float64(n+1)-1, 0), float64(n-1))
		lo := int(pos)
		q[k] = s[lo]
		if lo+1 < n {
			q[k] += (pos - float64(lo)) * (s[lo+1] - s[lo])
		}
	}
	return q
}

func spread(q [3]float64) string {
	return fmt.Sprintf("%.6g [%.6g–%.6g]", q[1], q[0], q[2])
}
