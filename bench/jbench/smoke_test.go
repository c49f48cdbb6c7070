package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

// TestWorkloadsShort runs each workload's untraced run at -short scale:
// set-up cycles, warm-up, a few timed ops and every correctness check.
func TestWorkloadsShort(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(w.procs))
			res, ms, err := runEndToEnd(w, 7, 0.01, 3)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 2 {
				t.Errorf("result %+v", res)
			}
			for _, m := range ms {
				if m.value <= 0 {
					t.Errorf("%s = %v %s: an end-to-end metric must never be 0", m.name, m.value, m.unit)
				}
			}
		})
	}
}

// TestBenchmarkFileMatchesDriver pins BENCHMARK.json to what the driver
// emits: the workloads, the end-to-end metrics and the per-layer metrics,
// by name and unit.
func TestBenchmarkFileMatchesDriver(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "..", benchmarkFile))
	if err != nil {
		t.Fatal(err)
	}
	type named struct{ Name, Unit string }
	var f struct {
		RunSeconds int     `json:"run_seconds"`
		Workloads  []named `json:"workloads"`
		EndToEnd   []named `json:"end_to_end"`
		PerLayer   []named `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	if f.RunSeconds != nominalSeconds {
		t.Errorf("run_seconds %d, the op counts are for %d", f.RunSeconds, nominalSeconds)
	}
	if len(f.Workloads) != len(workloads) {
		t.Fatalf("%d workloads listed, driver has %d", len(f.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if f.Workloads[i].Name != w.name {
			t.Errorf("workload %d is %q, driver has %q", i, f.Workloads[i].Name, w.name)
		}
	}
	_, ms, err := runEndToEnd(rpcKick, 1, 0.01, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.EndToEnd) != len(ms) {
		t.Fatalf("%d end-to-end metrics listed, driver prints %d", len(f.EndToEnd), len(ms))
	}
	for i, m := range ms {
		if got := f.EndToEnd[i]; got.Name != m.name || got.Unit != m.unit {
			t.Errorf("end-to-end metric %d is %+v, driver prints %s in %s", i, got, m.name, m.unit)
		}
	}
	if len(f.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics listed, driver prints %d", len(f.PerLayer), len(perLayer))
	}
	for i, m := range perLayer {
		if got := f.PerLayer[i]; got.Name != m.name || got.Unit != m.unit {
			t.Errorf("per-layer metric %d is %+v, driver prints %s in %s", i, got, m.name, m.unit)
		}
	}
}
