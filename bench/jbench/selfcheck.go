package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
)

// benchmarkFile is read from the checkout root the benchmark is run from.
const benchmarkFile = "BENCHMARK.json"

// endToEndSpec is one end_to_end entry of BENCHMARK.json.
type endToEndSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readEndToEnd() ([]endToEndSpec, error) {
	b, err := os.ReadFile(benchmarkFile)
	if err != nil {
		return nil, err
	}
	var f struct {
		EndToEnd []endToEndSpec `json:"end_to_end"`
	}
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", benchmarkFile, err)
	}
	return f.EndToEnd, nil
}

// selfCheck applies the acceptance rule of the benchmark to itself: every
// workload is run as two interleaved sets of runs of this one binary, run i
// of either set on seed+i, and for each end-to-end metric the spread of a
// set (interquartile range over median) and the gap between the sets'
// medians are held against the metric's bound. It prints a markdown report
// and returns the exit code: 1 if any pair is outside its bound or any op
// failed.
func selfCheck(runs int, seed int64, seconds float64) int {
	specs, err := readEndToEnd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "jbench:", err)
		return 1
	}
	fmt.Printf("# Noise of the benchmark against its own bounds\n\n")
	fmt.Printf("`jbench -selfcheck -runs %d -seed %d -seconds %g`: two interleaved sets of %d runs per workload,\n", runs, seed, seconds, runs)
	fmt.Printf("same binary, run i of both sets on seed %d+i. Host: %d CPUs, %s.\n\n",
		seed, runtime.NumCPU(), runtime.Version())
	fmt.Printf("spread = (q3 - q1) / median within a set; gap = how much worse set B's median is than set A's.\n")
	fmt.Printf("A pair fails when a spread (setup_s excepted) or the gap exceeds the bound.\n\n")
	bad := 0
	for _, w := range workloads {
		sets := [2]map[string][]float64{{}, {}}
		failed := 0
		for i := 0; i < runs; i++ {
			for s := range sets {
				res, err := runChild(nil, w.name, seed+int64(i), seconds, 0, false)
				if err != nil {
					fmt.Fprintln(os.Stderr, "jbench:", err)
					return 1
				}
				failed += res.Failed
				for name, m := range res.Metrics {
					sets[s][name] = append(sets[s][name], m.Value)
				}
			}
		}
		fmt.Printf("## %s (GOMAXPROCS %d, ops failed: %d)\n\n", w.name, w.procs, failed)
		fmt.Printf("| metric | unit | A q1 | A median | A q3 | B median | spread A | spread B | gap | bound | |\n")
		fmt.Printf("|---|---|---|---|---|---|---|---|---|---|---|\n")
		if failed > 0 {
			bad++
		}
		for _, sp := range specs {
			aq1, amed, aq3 := quartiles(sets[0][sp.Name])
			bq1, bmed, bq3 := quartiles(sets[1][sp.Name])
			spreadA, spreadB := (aq3-aq1)/amed, (bq3-bq1)/bmed
			gap := (bmed - amed) / amed
			if sp.Better == "higher" {
				gap = -gap
			}
			verdict := "ok"
			if gap > sp.Bound || (sp.Name != "setup_s" && math.Max(spreadA, spreadB) > sp.Bound) {
				verdict = "FAIL"
				bad++
			}
			fmt.Printf("| %s | %s | %.6g | %.6g | %.6g | %.6g | %.2f%% | %.2f%% | %+.2f%% | %.0f%% | %s |\n",
				sp.Name, sp.Unit, aq1, amed, aq3, bmed, 100*spreadA, 100*spreadB, 100*gap, 100*sp.Bound, verdict)
		}
		fmt.Println()
	}
	if bad > 0 {
		fmt.Printf("%d workload-metric pairs outside their bounds.\n", bad)
		return 1
	}
	fmt.Printf("All %d workload-metric pairs inside their bounds.\n", len(workloads)*len(specs))
	return 0
}
