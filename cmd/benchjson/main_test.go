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

// TestCompareImprovementPasses: an allocation count that drops passes, but
// a virtual metric that falls is not taken on trust: a bug that drops work
// from the model lowers virtual time too, so the fall fails as "moved",
// exactly like a rise.
func TestCompareImprovementPasses(t *testing.T) {
	base := map[string]map[string]float64{"BenchmarkA": {"virtual-us/step": 100, "allocs/op": 100}}
	cur := map[string]map[string]float64{"BenchmarkA": {"virtual-us/step": 30, "allocs/op": 10}}
	regs := compare(cur, base, 0.15, nil, regexp.MustCompile("A"))
	if len(regs) != 1 || !strings.Contains(regs[0], "BenchmarkA virtual-us/step moved: 100 -> 30") {
		t.Fatalf("compare = %v, want exactly the virtual fall, as moved", regs)
	}
}

// TestCompareGatesExactly: a virtual metric is a function of the inputs,
// so outside the -loose-match class the smallest change either way fails;
// inside it the tolerance applies, both ways. The two classes do not leak
// into each other.
func TestCompareGatesExactly(t *testing.T) {
	base := map[string]map[string]float64{
		"BenchmarkE2SC11":             {"virtual-s/iter": 0.4203},
		"BenchmarkE8ScaleUp/nodes-4":  {"virtual-s/iter": 1.5, "ns/op": 1000},
		"BenchmarkPipelinedKick":      {"virtual-us/step": 100},
		"BenchmarkConcurrentSessions": {"virtual-ms/makespan": 100},
		"BenchmarkEnsemble/fanout":    {"virtual-ms/makespan": 100},
	}
	cur := map[string]map[string]float64{
		"BenchmarkE2SC11":             {"virtual-s/iter": 0.4204},             // +0.02%: exact class, moved
		"BenchmarkE8ScaleUp/nodes-4":  {"virtual-s/iter": 1.5, "ns/op": 9999}, // equal
		"BenchmarkPipelinedKick":      {"virtual-us/step": 99},                // -1%: exact class, moved
		"BenchmarkConcurrentSessions": {"virtual-ms/makespan": 110},           // +10%: loose class, within tolerance
		"BenchmarkEnsemble/fanout":    {"virtual-ms/makespan": 120},           // +20%: loose class, moved
	}
	loose := regexp.MustCompile("ConcurrentSessions|Ensemble")
	regs := compare(cur, base, 0.15, loose, nil)
	if len(regs) != 3 || !strings.Contains(regs[0], "BenchmarkE2SC11") ||
		!strings.Contains(regs[1], "BenchmarkEnsemble/fanout") || !strings.Contains(regs[2], "BenchmarkPipelinedKick") {
		t.Fatalf("compare = %v, want the E2SC11, Ensemble and PipelinedKick moves", regs)
	}
	if regs := compare(cur, base, 0.15, nil, nil); len(regs) != 4 {
		t.Fatalf("no -loose-match: compare = %v, want every change flagged", regs)
	}
}

// TestCompareGatesBothWays: an exact metric fails a rise and a fall of one
// part in a million alike, and a loose one fails beyond the tolerance in
// either direction and passes within it in either.
func TestCompareGatesBothWays(t *testing.T) {
	loose := regexp.MustCompile("Loose")
	for _, c := range []struct {
		name     string
		was, now float64
		fails    bool
	}{
		{"BenchmarkExact", 1e6, 1e6 + 1, true},
		{"BenchmarkExact", 1e6, 1e6 - 1, true},
		{"BenchmarkExact", 1e6, 1e6, false},
		{"BenchmarkLoose", 100, 114, false},
		{"BenchmarkLoose", 100, 86, false},
		{"BenchmarkLoose", 100, 116, true},
		{"BenchmarkLoose", 100, 84, true},
	} {
		base := map[string]map[string]float64{c.name: {"virtual-us/op": c.was}}
		cur := map[string]map[string]float64{c.name: {"virtual-us/op": c.now}}
		regs := compare(cur, base, 0.15, loose, nil)
		if fails := len(regs) == 1 && strings.Contains(regs[0], "moved"); fails != c.fails || len(regs) > 1 {
			t.Errorf("%s %v -> %v: compare = %v, want failing %v", c.name, c.was, c.now, regs, c.fails)
		}
	}
}

// TestDiff: the -diff table lists every shared virtual-* entry that moved,
// either way, old -> new with the change in percent, sorted; equal entries,
// other units and entries on one side only are left out.
func TestDiff(t *testing.T) {
	old := map[string]map[string]float64{
		"BenchmarkA":    {"virtual-us/step": 200, "ns/op": 1},
		"BenchmarkB":    {"virtual-ms/makespan": 50, "allocs/op": 3},
		"BenchmarkC":    {"virtual-us/op": 7},
		"BenchmarkGone": {"virtual-us/op": 1},
	}
	cur := map[string]map[string]float64{
		"BenchmarkA":   {"virtual-us/step": 150, "ns/op": 2},
		"BenchmarkB":   {"virtual-ms/makespan": 51, "allocs/op": 4},
		"BenchmarkC":   {"virtual-us/op": 7},
		"BenchmarkNew": {"virtual-us/op": 1},
	}
	got := diff(old, cur)
	want := []string{
		"BenchmarkA virtual-us/step: 200 -> 150 (-25.00%)",
		"BenchmarkB virtual-ms/makespan: 50 -> 51 (+2.00%)",
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("diff = %q, want %q", got, want)
	}
	var b strings.Builder
	printDiff(&b, "OLD.json", "NEW.json", got)
	if out := b.String(); out != "benchjson: 2 virtual-* entries moved from OLD.json to NEW.json:\n  "+want[0]+"\n  "+want[1]+"\n" {
		t.Fatalf("printDiff wrote %q", out)
	}
	b.Reset()
	printDiff(&b, "OLD.json", "NEW.json", diff(old, old))
	if out := b.String(); out != "benchjson: no virtual-* entry moved from OLD.json to NEW.json\n" {
		t.Fatalf("printDiff of an unchanged file wrote %q", out)
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

// TestCompareGatesZeroAllocs: a gated benchmark that allocated nothing fails
// once it allocates more than the slack; a zero virtual-time baseline stays
// ungated.
func TestCompareGatesZeroAllocs(t *testing.T) {
	base := map[string]map[string]float64{
		"BenchmarkPortRoundTrip":     {"allocs/op": 0, "virtual-us/op": 0},
		"BenchmarkConnSendRecv/64B":  {"allocs/op": 0},
		"BenchmarkConnSendRecv/3MiB": {"allocs/op": 0},
	}
	cur := map[string]map[string]float64{
		"BenchmarkPortRoundTrip":     {"allocs/op": 2, "virtual-us/op": 5}, // two: regression
		"BenchmarkConnSendRecv/64B":  {"allocs/op": 1},                     // one: the slack
		"BenchmarkConnSendRecv/3MiB": {"allocs/op": 0},
	}
	regs := compare(cur, base, 0.15, nil, regexp.MustCompile("PortRoundTrip|ConnSendRecv"))
	if len(regs) != 1 || !strings.Contains(regs[0], "BenchmarkPortRoundTrip allocs/op") {
		t.Fatalf("compare = %v, want exactly the PortRoundTrip allocs/op regression", regs)
	}
}
