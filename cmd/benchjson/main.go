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
// and exits 1 when any shared virtual-time metric regressed. Virtual time
// is a function of the inputs, so the gate is exact: any rise fails.
// -loose-match names the benchmarks that are the exception — several
// sessions race for admission, so their virtual makespan depends on how
// goroutines interleave — and gates those at -tolerance (default 15%)
// instead. Wall-clock ns/op varies with the host and would flake, so it is
// never gated:
//
//	go test -bench . | benchjson -o BENCH_8.json -against BENCH_7.json
//
// -allocs-match names the benchmarks whose allocs/op is gated too, at
// allocsTolerance plus allocsSlack: single-process benchmarks whose
// allocation count repeats exactly from run to run, so any growth is a
// change in the code. Like -loose-match it exists for one caller, `make
// bench-check`, which holds the list of names; the tool stays ignorant of
// which benchmarks the repo has.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
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
// both, whose unit names a virtual-time quantity, must not exceed the
// baseline at all — or, on the benchmarks loose names, by more than tol
// (fractional) — and neither must allocs/op, by more than allocsTolerance
// and allocsSlack, on the benchmarks allocs names. It returns one line per
// regression; an empty slice means the gate passes. Benchmarks or metrics
// present on only one side are ignored — adding a benchmark must not fail
// the gate, and neither must retiring one. A nil loose gates every virtual
// metric exactly; a nil allocs gates no allocation count.
func compare(cur, base map[string]map[string]float64, tol float64, loose, allocs *regexp.Regexp) []string {
	var regressions []string
	names := make([]string, 0, len(cur))
	for name := range cur {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		old, ok := base[name]
		if !ok {
			continue
		}
		metrics := make([]string, 0, len(cur[name]))
		for unit := range cur[name] {
			metrics = append(metrics, unit)
		}
		sort.Strings(metrics)
		for _, unit := range metrics {
			limit, slack := 0.0, 0.0
			switch {
			case strings.HasPrefix(unit, "virtual-"):
				if loose != nil && loose.MatchString(name) {
					limit = tol
				}
			case unit == "allocs/op" && allocs != nil && allocs.MatchString(name):
				limit, slack = allocsTolerance, allocsSlack
			default:
				continue
			}
			was, ok := old[unit]
			if !ok || was <= 0 {
				continue
			}
			now := cur[name][unit]
			if now > was*(1+limit)+slack {
				regressions = append(regressions, fmt.Sprintf(
					"%s %s: %v -> %v (+%.2g%%, tolerance %.0f%% + %v)",
					name, unit, was, now, (now/was-1)*100, limit*100, slack))
			}
		}
	}
	return regressions
}

func main() {
	out := flag.String("o", "BENCH_6.json", "output JSON file")
	against := flag.String("against", "", "baseline JSON file to gate regressions against")
	tolerance := flag.Float64("tolerance", 0.15, "allowed fractional regression for the virtual-* metrics of -loose-match benchmarks")
	looseExpr := flag.String("loose-match", "", "regexp naming the benchmarks whose virtual-* metrics are gated at -tolerance, not exactly (empty: none)")
	allocsExpr := flag.String("allocs-match", "", "regexp naming the benchmarks whose allocs/op is gated as well (empty gates none)")
	flag.Parse()

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
		raw, err := os.ReadFile(*against)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: baseline: %v\n", err)
			os.Exit(1)
		}
		base := map[string]map[string]float64{}
		if err := json.Unmarshal(raw, &base); err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: baseline %s: %v\n", *against, err)
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
		if regressions := compare(results, base, *tolerance, loose, allocs); len(regressions) > 0 {
			fmt.Fprintf(os.Stderr, "benchjson: %d regression(s) vs %s:\n", len(regressions), *against)
			for _, r := range regressions {
				fmt.Fprintf(os.Stderr, "  %s\n", r)
			}
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "benchjson: no gated regressions vs %s\n", *against)
	}
}
