package exp

import (
	"context"
	"fmt"
	"testing"

	"jungle/internal/phys/nbody"
	"jungle/internal/phys/sph"
	"jungle/internal/phys/tree"
	"jungle/internal/vtime"
)

// TestCalibrationMeasurements re-measures the per-phase flop counts that
// the adapters' efficiency constants were fitted from (gravityEfficiency in
// phys/nbody/service.go, hydroEfficiency in phys/sph, fieldEfficiency in
// phys/tree; DESIGN.md § Kernel efficiency calibration has the fit). If
// kernels change their accounting, this test catches the drift so the
// calibration can be re-fitted.
func TestCalibrationMeasurements(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale calibration run")
	}
	w := DefaultWorkload()
	stars, gas, err := w.Build()
	if err != nil {
		t.Fatal(err)
	}
	cpu := &vtime.Device{Name: "cpu", Kind: vtime.CPU, Gflops: 8, Cores: 4}

	g := nbody.NewSystem(nbody.NewCPUKernel(cpu), 0.01)
	g.SetParticles(stars)
	if err := g.EvolveTo(context.Background(), w.DT); err != nil {
		t.Fatal(err)
	}
	pg := g.ResetFlops()

	h := sph.New()
	h.EpsGrav = 0.01
	if err := h.SetParticles(gas); err != nil {
		t.Fatal(err)
	}
	if err := h.EvolveTo(context.Background(), w.DT); err != nil {
		t.Fatal(err)
	}
	sphF := h.ResetFlops()

	k := tree.NewFi(cpu)
	_, _, f1 := k.FieldAt(context.Background(), gas.Mass, gas.Pos, stars.Pos, w.Eps)
	_, _, f2 := k.FieldAt(context.Background(), stars.Mass, stars.Pos, gas.Pos, w.Eps)
	coupling := 2 * (f1 + f2)

	fmt.Printf("calibration: phigrape=%.3e sph=%.3e coupling=%.3e flops/iter\n",
		pg, sphF, coupling)

	within := func(name string, got, fitted, tol float64) {
		if got < fitted*(1-tol) || got > fitted*(1+tol) {
			t.Errorf("%s flops/iter = %.3e, fitted against %.3e (±%.0f%%): re-fit the adapter's efficiency constant (DESIGN.md § Kernel efficiency calibration)",
				name, got, fitted, tol*100)
		}
	}
	within("phigrape", pg, 1.558e9, 0.3)
	within("sph", sphF, 1.439e9, 0.5) // adaptive stepping varies more
	within("coupling", coupling, 3.62e8, 0.3)
}
