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
// A verdict is "regression" when the change's median is worse than the
// base's by more than the bound, "gain" when it is better in at least nine
// pairs in ten and by more than the base's interquartile range, and "ok"
// otherwise. ab exits 1 on a regression and stops at the first run that
// fails, an op failing included (bench/run.sh then exits non-zero).
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
	"slices"
	"strconv"
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
		EndToEnd []metric `json:"end_to_end"`
	}
	b, err := os.ReadFile("BENCHMARK.json")
	if err == nil {
		err = json.Unmarshal(b, &spec)
	}
	if err != nil {
		return err
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
	fmt.Printf("ab: %s, base %.12s against the working tree, %d pairs from seed %d\n", workload, rev, pairs, seed)

	sides, names := [2]string{dir, root}, [2]string{"base", "change"}
	var runs [2][]result
	for i := 0; i < pairs; i++ {
		for k := 0; k < 2; k++ {
			side := (i + k) % 2 // base first in even pairs, the change first in odd
			res, err := benchRun(sides[side], workload, seed+i)
			if err != nil {
				return fmt.Errorf("pair %d, %s: %w", i, names[side], err)
			}
			runs[side] = append(runs[side], res)
			fmt.Printf("pair %d %-6s seed %d:", i, names[side], seed+i)
			for _, m := range spec.EndToEnd {
				fmt.Printf(" %s %.6g", m.Name, res.Metrics[m.Name].Value)
			}
			fmt.Println()
		}
	}

	fmt.Printf("%-18s %-34s %-34s %8s %6s  %s\n", "metric", "base median [q1–q3]", "change median [q1–q3]", "change", "wins", "verdict")
	regressed := false
	for _, m := range spec.EndToEnd {
		var x [2][]float64
		wins := 0
		for i := 0; i < pairs; i++ {
			p, c := runs[0][i].Metrics[m.Name].Value, runs[1][i].Metrics[m.Name].Value
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
			verdict, regressed = "regression", true
		case worse < 0 && 10*wins >= 9*pairs && math.Abs(r[1]-q[1]) > q[2]-q[0]:
			verdict = "gain"
		}
		fmt.Printf("%-18s %-34s %-34s %+7.2f%% %3d/%-2d  %s (bound %g%%)\n",
			m.Name, spread(q), spread(r), 100*move, wins, pairs, verdict, 100*m.Bound)
	}
	if regressed {
		return fmt.Errorf("the change is worse than the base beyond a bound")
	}
	return nil
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
