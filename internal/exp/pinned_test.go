package exp

import (
	"context"
	"runtime"
	"testing"

	"jungle/internal/core"
)

// cpuOnlyDigestSeed1 is the star model's state digest after 8 bridge steps
// of the cpu-only placement at a tenth of the default workload, seed 1 —
// the reference run of the repo benchmark's coupled_step workload —
// recorded before the physics hot loops were rewritten (PR 15). Every
// kernel on the step (Hermite pair forces, SPH density and forces with
// tree self-gravity, the coupling tree) feeds it, so a rewrite that
// changes one bit of one interaction moves it.
const cpuOnlyDigestSeed1 uint64 = 0x0f4feaa56378e719

func TestCPUOnlyDigestPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("the constant was recorded on amd64; the arm64 compiler fuses multiply-adds")
	}
	tb, err := core.NewLabTestbed()
	if err != nil {
		t.Fatal(err)
	}
	defer tb.Close()
	w := DefaultWorkload().Scaled(0.1)
	w.Seed = 1
	res, err := RunScenario(context.Background(), tb, w, LabScenarios(tb)[0], 8)
	if err != nil {
		t.Fatal(err)
	}
	if res.StateDigest != cpuOnlyDigestSeed1 {
		t.Fatalf("cpu-only star digest after 8 steps = %#016x, recorded %#016x", res.StateDigest, cpuOnlyDigestSeed1)
	}
}
