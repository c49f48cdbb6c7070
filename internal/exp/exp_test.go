package exp

import (
	"regexp"
	"strings"
	"testing"

	"jungle/internal/core"
)

// Experiments run at tiny scale in tests: correctness of the machinery,
// not the calibrated numbers (those are exercised by jungle-bench and the
// benchmarks at scale 1).

func TestE1ShapeAtSmallScale(t *testing.T) {
	if testing.Short() {
		t.Skip("integration experiment")
	}
	table, results, err := E1(0.05, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 4 {
		t.Fatalf("scenarios = %d", len(results))
	}
	byName := map[string]float64{}
	for _, r := range results {
		byName[r.Scenario] = r.PerIteration.Seconds()
	}
	// The paper's ordering: cpu-only slowest by far; local GPU much
	// faster; remote Tesla faster than local GeForce; jungle fastest.
	if !(byName["cpu-only"] > byName["local-gpu"]) {
		t.Fatalf("cpu-only (%v) not slower than local-gpu (%v)\n%s",
			byName["cpu-only"], byName["local-gpu"], table)
	}
	if !(byName["local-gpu"] > byName["remote-gpu"]) {
		t.Fatalf("local-gpu (%v) not slower than remote-gpu (%v)\n%s",
			byName["local-gpu"], byName["remote-gpu"], table)
	}
	if !(byName["remote-gpu"] > byName["jungle"]) {
		t.Fatalf("remote-gpu (%v) not slower than jungle (%v)\n%s",
			byName["remote-gpu"], byName["jungle"], table)
	}
	// Magnitude ratios (353:89:84:62.4) only hold at scale 1 — the phases
	// scale with different complexity laws — so small-scale runs assert
	// ordering only. BenchmarkE1 and TestE1FullScale check the ratios.
}

// TestE1FullScale verifies the calibrated headline numbers: the paper's
// 353 / 89 / 84 within tolerance, and the jungle scenario fastest (the
// reproduction wins by more than the paper's 62.4: that row is not fitted,
// see DESIGN.md § Kernel efficiency calibration and ROADMAP item 1).
func TestE1FullScale(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale calibrated run")
	}
	_, results, err := E1(1.0, 1)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]float64{}
	for _, r := range results {
		byName[r.Scenario] = r.PerIteration.Seconds()
	}
	within := func(name string, paper, tol float64) {
		got := byName[name]
		if got < paper*(1-tol) || got > paper*(1+tol) {
			t.Errorf("%s = %.1f s/iter, paper %.1f (±%.0f%%)", name, got, paper, tol*100)
		}
	}
	within("cpu-only", 353, 0.30)
	within("local-gpu", 89, 0.30)
	within("remote-gpu", 84, 0.30)
	if byName["jungle"] >= byName["remote-gpu"] {
		t.Errorf("jungle (%.1f) not fastest (remote-gpu %.1f)", byName["jungle"], byName["remote-gpu"])
	}
}

func TestE2TransatlanticPenalty(t *testing.T) {
	if testing.Short() {
		t.Skip("integration experiment")
	}
	table, err := E2(0.04, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(table, "transatlantic penalty: +") {
		t.Fatalf("no positive transatlantic penalty:\n%s", table)
	}
	if !strings.Contains(table, "SmartSockets overlay") {
		t.Fatalf("missing overlay map:\n%s", table)
	}
	// The SC11-style runs must move state on the direct worker-to-worker
	// plane by default, with the hairpin reachable only as fallback. The
	// leading space keeps "40 direct" from matching the zero check.
	if strings.Contains(table, " 0 direct") {
		t.Fatalf("a run moved no state over the direct plane:\n%s", table)
	}
	if !strings.Contains(table, "/ 0 fallback") {
		t.Fatalf("a healthy run fell back to the hairpin:\n%s", table)
	}
	// The mix line has exactly the three ways a transfer is carried.
	if n := len(regexp.MustCompile(`\d+ direct / \d+ hairpin / \d+ fallback\s`).FindAllString(table, -1)); n != 2 {
		t.Fatalf("%d of 2 rows carry the direct / hairpin / fallback mix:\n%s", n, table)
	}
}

func TestE3OverlayConnectivity(t *testing.T) {
	table, err := E3()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(table, "overlay connected: true") {
		t.Fatalf("overlay not connected:\n%s", table)
	}
	// The SC11 network must need non-direct links (SSH tunnels to the
	// cluster front-ends) — the red lines of Fig. 10.
	if strings.Contains(table, "ssh-tunnel  0") {
		t.Fatalf("expected ssh tunnels:\n%s", table)
	}
}

func TestE4TrafficClasses(t *testing.T) {
	if testing.Short() {
		t.Skip("integration experiment")
	}
	table, err := E4(0.04)
	if err != nil {
		t.Fatal(err)
	}
	for _, class := range []string{"ipl", "mpi", "loopback", "hub"} {
		if !strings.Contains(table, class) {
			t.Fatalf("traffic table missing class %q:\n%s", class, table)
		}
	}
}

func TestE5GasExpulsion(t *testing.T) {
	if testing.Short() {
		t.Skip("physics experiment")
	}
	table, stages, err := E5(40, 400, 2.0)
	if err != nil {
		t.Fatal(err)
	}
	if len(stages) != 4 {
		t.Fatalf("stages = %d", len(stages))
	}
	first, last := stages[0], stages[3]
	if last.SupernovaeSoFar == 0 {
		t.Fatalf("no supernovae:\n%s", table)
	}
	if !(last.BoundGasFrac < first.BoundGasFrac) {
		t.Fatalf("gas not unbound: %v -> %v\n%s", first.BoundGasFrac, last.BoundGasFrac, table)
	}
	if !(last.GasHalfMass > 1.5*first.GasHalfMass) {
		t.Fatalf("gas not expanding: Rh %v -> %v\n%s", first.GasHalfMass, last.GasHalfMass, table)
	}
	if !(last.StarHalfMass > first.StarHalfMass) {
		t.Fatalf("cluster did not expand: Rh %v -> %v\n%s", first.StarHalfMass, last.StarHalfMass, table)
	}
}

func TestE6CallSequence(t *testing.T) {
	out, calls, err := E6()
	if err != nil {
		t.Fatal(err)
	}
	wantOrder := []string{
		"bridge.step", "coupler.field", "stars.kick", "gas.kick",
		"stars.evolve", "coupler.field", "stars.kick", "gas.kick", "stellar.evolve",
	}
	idx := 0
	for _, c := range calls {
		if idx < len(wantOrder) && strings.HasPrefix(c, wantOrder[idx]) {
			idx++
		}
	}
	if idx != len(wantOrder) {
		t.Fatalf("sequence incomplete (%d/%d):\n%s", idx, len(wantOrder), out)
	}
}

func TestE7LoopbackReal(t *testing.T) {
	res, err := RunE7(64<<20, 1<<20, 200)
	if err != nil {
		t.Fatal(err)
	}
	// The paper claims >8 Gbit/s on a modest 2011 laptop; any modern
	// machine's loopback far exceeds it, but CI boxes vary — require a
	// sane floor and a sub-millisecond RTT.
	if res.ThroughputGbit < 1 {
		t.Fatalf("loopback throughput %.2f Gbit/s", res.ThroughputGbit)
	}
	if res.RTT <= 0 || res.RTT.Milliseconds() > 5 {
		t.Fatalf("loopback RTT %v", res.RTT)
	}
	if !strings.Contains(E7Report(res), "Gbit/s") {
		t.Fatal("report missing throughput")
	}
}

func TestWorkloadScaling(t *testing.T) {
	w := DefaultWorkload().Scaled(0.1)
	if w.Stars != 100 || w.Gas != 1000 {
		t.Fatalf("scaled workload: %+v", w)
	}
	tiny := DefaultWorkload().Scaled(0.0001)
	if tiny.Stars < 10 || tiny.Gas < 20 {
		t.Fatalf("floor not applied: %+v", tiny)
	}
	stars, gas, err := w.Build()
	if err != nil {
		t.Fatal(err)
	}
	if stars.Len() != 100 || gas.Len() != 1000 {
		t.Fatal("build mismatch")
	}
}

func TestScenarioPlacements(t *testing.T) {
	tb, err := core.NewLabTestbed()
	if err != nil {
		t.Fatal(err)
	}
	defer tb.Close()
	ps := LabScenarios(tb)
	if len(ps) != 4 {
		t.Fatalf("scenarios = %d", len(ps))
	}
	if ps[0].FieldKernel != "fi" || ps[1].FieldKernel != "octgrav" {
		t.Fatal("kernel selection wrong")
	}
	if ps[2].Field.Resource != tb.LGM {
		t.Fatalf("remote-gpu field resource = %s", ps[2].Field.Resource)
	}
	if ps[3].Hydro.Nodes != 8 {
		t.Fatalf("jungle hydro nodes = %d", ps[3].Hydro.Nodes)
	}
}
