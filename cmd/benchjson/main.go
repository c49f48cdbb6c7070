// Command benchjson turns `go test -bench` output into a machine-readable
// perf trajectory. It tees its stdin to stdout unchanged (so `make bench`
// still reads like a bench run) and writes every parsed benchmark line to a
// JSON file: benchmark name → {metric unit → value}, covering the custom
// virtual-time metrics (virtual-us/step, virtual-us/transfer, ...) next to
// the standard ns/op and -benchmem columns.
//
//	go test -bench . | benchjson -o BENCH_6.json
//
// With -against it additionally compares the run to an earlier JSON file
// and exits 1 when any shared virtual-time metric moved. Virtual time is a
// function of the inputs, so the gate is exact and two-sided: any change
// fails, a fall as much as a rise — a fall is as likely a bug that drops
// work from the model as a gain, and a PR that means it re-baselines.
// -loose-match names the benchmarks that are the exception — several
// sessions race for admission, so their virtual makespan depends on how
// goroutines interleave — and gates those at -tolerance (default 15%),
// in both directions, instead. Wall-clock ns/op varies with the host and
// would flake, so it is never gated:
//
//	go test -bench . | benchjson -o BENCH_8.json -against BENCH_7.json
//
// -allocs-match names the benchmarks whose allocs/op is gated too, at
// allocsTolerance plus allocsSlack and upwards only: single-process
// benchmarks whose allocation count repeats exactly from run to run, so
// any growth is a change in the code. Like -loose-match it exists for one
// caller, `make bench-check`, which holds the list of names; the tool
// stays ignorant of which benchmarks the repo has.
//
// -diff reads no benchmark output: it prints every virtual-* entry two
// JSON files share whose value differs, old -> new with the change in
// percent (`make bench` prints it against the previous file):
//
//	benchjson -diff BENCH_7.json BENCH_8.json

package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// benchLine matches one benchmark result line: name, iteration count, then
// value/unit pairs ("14601428 ns/op	562633 virtual-us/transfer"). Names are
// kept verbatim, GOMAXPROCS suffix included — sub-benchmark names like
// "gang-4" are indistinguishable from it, and benchstat keeps it too.
var benchLine = regexp.MustCompile(`^(Benchmark\S+)\s+(\d+)\s+(.+)$`)

func parseMetrics(rest string) map[string]float64 {
	fields := strings.Fields(rest)
	m := make(map[string]float64, len(fields)/2)
	for i := 0; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return nil
		}
		m[fields[i+1]] = v
	}
	if len(m) == 0 {
		return nil
	}
	return m
}

// allocsTolerance is the allowed fractional growth of a gated allocs/op:
// the gated benchmarks repeat their count exactly, the margin only absorbs
// the odd allocation a runtime timer or a grown map adds to a long run.
const allocsTolerance = 0.02

// allocsSlack is allowed on top of allocsTolerance, in allocations: below
// 50 allocs/op the 2 % is less than one allocation, and a count averaged
// over a b.N of 2 rounds either way (BenchmarkSPHStep reads 34 or 35).
const allocsSlack = 1

// compare checks cur against base: every benchmark/metric pair present in
// both whose unit names a virtual-time quantity must equal the baseline —
// or, on the benchmarks loose names, stay within tol (fractional) of it
// either way — and allocs/op, on the benchmarks allocs names, must not
// exceed it by more than allocsTolerance and allocsSlack. It returns one
// line per failure; an empty slice means the gate passes. Benchmarks or
// metrics present on only one side are ignored — adding a benchmark must
// not fail the gate, and neither must retiring one. A nil loose gates
// every virtual metric exactly; a nil allocs gates no allocation count.
func compare(cur, base map[string]map[string]float64, tol float64, loose, allocs *regexp.Regexp) []string {
	var failures []string
	for _, e := range shared(cur, base) {
		switch {
		case e.was < 0:
		case strings.HasPrefix(e.unit, "virtual-"):
			limit := 0.0
			if loose != nil && loose.MatchString(e.name) {
				limit = tol
			}
			// A zero baseline is not gated: a change from it has no size.
			if e.was > 0 && math.Abs(e.now-e.was) > e.was*limit {
				failures = append(failures, fmt.Sprintf("%s %s moved: %v -> %v (%+.2g%%, tolerance %.0f%%)",
					e.name, e.unit, e.was, e.now, (e.now/e.was-1)*100, limit*100))
			}
		case e.unit == "allocs/op" && allocs != nil && allocs.MatchString(e.name):
			// A zero baseline is gated through the slack: a benchmark
			// that allocated nothing may not start to.
			if e.now > e.was*(1+allocsTolerance)+allocsSlack {
				failures = append(failures, fmt.Sprintf("%s %s rose: %v -> %v (+%.2g%%, tolerance %.0f%% + %v)",
					e.name, e.unit, e.was, e.now, (e.now/e.was-1)*100, allocsTolerance*100, allocsSlack))
			}
		}
	}
	return failures
}

// entry is one benchmark/metric pair both runs have.
type entry struct {
	name, unit string
	was, now   float64
}

// shared lists the benchmark/metric pairs of cur that base has too, sorted
// by name and unit.
func shared(cur, base map[string]map[string]float64) []entry {
	var out []entry
	for name, metrics := range cur {
		for unit, now := range metrics {
			was, ok := base[name][unit]
			if !ok {
				continue
			}
			out = append(out, entry{name, unit, was, now})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].name != out[j].name {
			return out[i].name < out[j].name
		}
		return out[i].unit < out[j].unit
	})
	return out
}

// diff lists, one line each, the virtual-* entries old and cur share whose
// values differ: old -> new and the change in percent (none from zero).
func diff(old, cur map[string]map[string]float64) []string {
	var lines []string
	for _, e := range shared(cur, old) {
		if !strings.HasPrefix(e.unit, "virtual-") || e.now == e.was {
			continue
		}
		line := fmt.Sprintf("%s %s: %v -> %v", e.name, e.unit, e.was, e.now)
		if e.was != 0 {
			line += fmt.Sprintf(" (%+.2f%%)", (e.now/e.was-1)*100)
		}
		lines = append(lines, line)
	}
	return lines
}

// readJSON reads one BENCH_*.json file.
func readJSON(path string) (map[string]map[string]float64, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	m := map[string]map[string]float64{}
	if err := json.Unmarshal(raw, &m); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return m, nil
}

// printDiff writes diff's lines under a header naming both files.
func printDiff(w io.Writer, old, cur string, lines []string) {
	if len(lines) == 0 {
		fmt.Fprintf(w, "benchjson: no virtual-* entry moved from %s to %s\n", old, cur)
		return
	}
	fmt.Fprintf(w, "benchjson: %d virtual-* entries moved from %s to %s:\n", len(lines), old, cur)
	for _, l := range lines {
		fmt.Fprintf(w, "  %s\n", l)
	}
}

func main() {
	out := flag.String("o", "BENCH_6.json", "output JSON file")
	against := flag.String("against", "", "baseline JSON file to gate regressions against")
	tolerance := flag.Float64("tolerance", 0.15, "allowed fractional regression for the virtual-* metrics of -loose-match benchmarks")
	looseExpr := flag.String("loose-match", "", "regexp naming the benchmarks whose virtual-* metrics are gated at -tolerance, not exactly (empty: none)")
	allocsExpr := flag.String("allocs-match", "", "regexp naming the benchmarks whose allocs/op is gated as well (empty gates none)")
	diffMode := flag.Bool("diff", false, "read no benchmark output: print the virtual-* entries that moved from the first JSON file argument to the second")
	flag.Parse()

	if *diffMode {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "benchjson: -diff takes two JSON files, OLD and NEW")
			os.Exit(2)
		}
		old, err := readJSON(flag.Arg(0))
		if err == nil {
			var cur map[string]map[string]float64
			if cur, err = readJSON(flag.Arg(1)); err == nil {
				printDiff(os.Stdout, flag.Arg(0), flag.Arg(1), diff(old, cur))
				return
			}
		}
		fmt.Fprintf(os.Stderr, "benchjson: -diff: %v\n", err)
		os.Exit(1)
	}

	results := map[string]map[string]float64{}
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		fmt.Println(line)
		m := benchLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		metrics := parseMetrics(m[3])
		if metrics == nil {
			continue
		}
		name := m[1]
		if prev, ok := results[name]; ok {
			for k, v := range metrics {
				prev[k] = v
			}
		} else {
			results[name] = metrics
		}
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: read: %v\n", err)
		os.Exit(1)
	}
	if len(results) == 0 {
		fmt.Fprintln(os.Stderr, "benchjson: no benchmark lines on stdin")
		os.Exit(1)
	}
	blob, err := json.MarshalIndent(results, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: encode: %v\n", err)
		os.Exit(1)
	}
	if err := os.WriteFile(*out, append(blob, '\n'), 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: write: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "benchjson: %d benchmarks -> %s\n", len(results), *out)

	if *against != "" {
		base, err := readJSON(*against)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: baseline: %v\n", err)
			os.Exit(1)
		}
		var loose, allocs *regexp.Regexp
		if *looseExpr != "" {
			if loose, err = regexp.Compile(*looseExpr); err != nil {
				fmt.Fprintf(os.Stderr, "benchjson: -loose-match: %v\n", err)
				os.Exit(1)
			}
		}
		if *allocsExpr != "" {
			if allocs, err = regexp.Compile(*allocsExpr); err != nil {
				fmt.Fprintf(os.Stderr, "benchjson: -allocs-match: %v\n", err)
				os.Exit(1)
			}
		}
		if failures := compare(results, base, *tolerance, loose, allocs); len(failures) > 0 {
			fmt.Fprintf(os.Stderr, "benchjson: %d gated change(s) vs %s:\n", len(failures), *against)
			for _, f := range failures {
				fmt.Fprintf(os.Stderr, "  %s\n", f)
			}
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "benchjson: no gated changes vs %s\n", *against)
	}
}
