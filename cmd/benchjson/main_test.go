package main

import (
	"regexp"
	"strings"
	"testing"
)

func TestParseMetrics(t *testing.T) {
	m := parseMetrics("14601428 ns/op\t562633 virtual-us/transfer")
	if m == nil || m["ns/op"] != 14601428 || m["virtual-us/transfer"] != 562633 {
		t.Fatalf("parseMetrics = %v", m)
	}
	if parseMetrics("not a benchmark line") != nil {
		t.Fatal("garbage parsed as metrics")
	}
}

// TestCompareGatesVirtualMetrics: only virtual-* metrics are gated;
// wall-clock ns/op may regress freely (host-dependent), and benchmarks or
// metrics present on one side only are ignored. (Every name is in the loose
// class here; TestCompareGatesExactly covers the other.)
func TestCompareGatesVirtualMetrics(t *testing.T) {
	base := map[string]map[string]float64{
		"BenchmarkA":    {"virtual-us/step": 100, "ns/op": 1000},
		"BenchmarkB":    {"virtual-us/step": 50},
		"BenchmarkGone": {"virtual-us/step": 10},
	}
	cur := map[string]map[string]float64{
		"BenchmarkA":   {"virtual-us/step": 110, "ns/op": 99999}, // +10%: within tolerance
		"BenchmarkB":   {"virtual-us/step": 80},                  // +60%: regression
		"BenchmarkNew": {"virtual-us/step": 1e9},                 // no baseline: ignored
	}
	all := regexp.MustCompile(".")
	regs := compare(cur, base, 0.15, all, nil)
	if len(regs) != 1 || !strings.Contains(regs[0], "BenchmarkB") {
		t.Fatalf("compare = %v, want exactly the BenchmarkB regression", regs)
	}
	if regs := compare(cur, base, 0.65, all, nil); len(regs) != 0 {
		t.Fatalf("tolerance 65%%: compare = %v, want none", regs)
	}
}

// TestCompareImprovementPasses: getting faster is never a regression.
func TestCompareImprovementPasses(t *testing.T) {
	base := map[string]map[string]float64{"BenchmarkA": {"virtual-us/step": 100}}
	cur := map[string]map[string]float64{"BenchmarkA": {"virtual-us/step": 30}}
	if regs := compare(cur, base, 0.15, nil, nil); len(regs) != 0 {
		t.Fatalf("improvement flagged: %v", regs)
	}
}

// TestCompareGatesExactly: a virtual metric is a function of the inputs,
// so outside the -loose-match class the smallest rise is a regression;
// inside it the tolerance applies. The two classes do not leak into each
// other, and a fall passes in both.
func TestCompareGatesExactly(t *testing.T) {
	base := map[string]map[string]float64{
		"BenchmarkE2SC11":             {"virtual-s/iter": 0.4203},
		"BenchmarkE8ScaleUp/nodes-4":  {"virtual-s/iter": 1.5, "ns/op": 1000},
		"BenchmarkPipelinedKick":      {"virtual-us/step": 100},
		"BenchmarkConcurrentSessions": {"virtual-ms/makespan": 100},
		"BenchmarkEnsemble/fanout":    {"virtual-ms/makespan": 100},
	}
	cur := map[string]map[string]float64{
		"BenchmarkE2SC11":             {"virtual-s/iter": 0.4204},             // +0.02%: exact class, regression
		"BenchmarkE8ScaleUp/nodes-4":  {"virtual-s/iter": 1.5, "ns/op": 9999}, // equal
		"BenchmarkPipelinedKick":      {"virtual-us/step": 99},                // fell
		"BenchmarkConcurrentSessions": {"virtual-ms/makespan": 110},           // +10%: loose class, within tolerance
		"BenchmarkEnsemble/fanout":    {"virtual-ms/makespan": 120},           // +20%: loose class, regression
	}
	loose := regexp.MustCompile("ConcurrentSessions|Ensemble")
	regs := compare(cur, base, 0.15, loose, nil)
	if len(regs) != 2 || !strings.Contains(regs[0], "BenchmarkE2SC11") || !strings.Contains(regs[1], "BenchmarkEnsemble/fanout") {
		t.Fatalf("compare = %v, want the E2SC11 and Ensemble regressions", regs)
	}
	if regs := compare(cur, base, 0.15, nil, nil); len(regs) != 3 {
		t.Fatalf("no -loose-match: compare = %v, want every rise flagged", regs)
	}
}

// TestCompareGatesAllocs: allocs/op is gated at 2% plus one allocation on
// the benchmarks -allocs-match names and nowhere else, whatever class their
// virtual metrics are in; B/op and ns/op stay ungated.
func TestCompareGatesAllocs(t *testing.T) {
	base := map[string]map[string]float64{
		"BenchmarkSPHStep":      {"allocs/op": 100, "B/op": 1000, "ns/op": 1000},
		"BenchmarkHermiteStep":  {"allocs/op": 100},
		"BenchmarkTreeField":    {"allocs/op": 34},
		"BenchmarkMPIAllreduce": {"allocs/op": 34},
		"BenchmarkConcurrent":   {"allocs/op": 100, "virtual-us/step": 100},
	}
	cur := map[string]map[string]float64{
		"BenchmarkSPHStep":      {"allocs/op": 104, "B/op": 9999, "ns/op": 9999}, // +2% and two more: regression
		"BenchmarkHermiteStep":  {"allocs/op": 103},                              // +2% and one more: at the tolerance
		"BenchmarkTreeField":    {"allocs/op": 35},                               // one more where 2% is less than one: the slack
		"BenchmarkMPIAllreduce": {"allocs/op": 36},                               // two more: regression
		"BenchmarkConcurrent":   {"allocs/op": 150, "virtual-us/step": 100},      // not named: wanders, ungated
	}
	allocs := regexp.MustCompile("SPHStep|HermiteStep|TreeField|MPIAllreduce")
	regs := compare(cur, base, 0.15, regexp.MustCompile("Concurrent"), allocs)
	if len(regs) != 2 || !strings.Contains(regs[0], "BenchmarkMPIAllreduce allocs/op") || !strings.Contains(regs[1], "BenchmarkSPHStep allocs/op") {
		t.Fatalf("compare = %v, want exactly the MPIAllreduce and SPHStep allocs/op regressions", regs)
	}
	if regs := compare(cur, base, 0.15, nil, nil); len(regs) != 0 {
		t.Fatalf("no -allocs-match: compare = %v, want none", regs)
	}
}
