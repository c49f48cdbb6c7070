// Quickstart: the smallest end-to-end use of the library — start the lab
// testbed (Fig. 12's machines), run one gravitational-dynamics worker on
// the desktop, and evolve a small star cluster while checking energy
// conservation. This is the distributed-AMUSE equivalent of an AMUSE
// "hello world" script.
package main

import (
	"context"
	"fmt"
	"log"
	"math"

	"jungle/internal/amuse/ic"
	"jungle/internal/amuse/units"
	"jungle/internal/core"

	// Link the standard kernel kinds into the binary.
	_ "jungle/internal/kernels"
)

func main() {
	// 1. Testbed + daemon (the paper's step: "start the Ibis daemon on the
	//    local machine").
	tb, err := core.NewLabTestbed()
	if err != nil {
		log.Fatalf("testbed: %v", err)
	}
	defer tb.Close()

	// 2. A simulation session with a physical scale: a 1000 MSun cluster
	//    with a 1 pc virial radius (checked unit conversions throughout).
	//    The session context bounds every coupler call; cancelling it
	//    would abort even calls blocked on a wide-area round trip.
	ctx := context.Background()
	conv, err := units.NewConverter(units.New(1000, units.MSun), units.New(1, units.Parsec))
	if err != nil {
		log.Fatalf("converter: %v", err)
	}
	sim := core.NewSimulation(ctx, tb.Daemon, conv)
	defer sim.Stop()

	// 3. One gravity worker on the local desktop via the default MPI
	//    channel (exactly AMUSE's default setup).
	grav, err := sim.NewGravity(
		ctx,
		core.WorkerSpec{Resource: "desktop", Channel: core.ChannelMPI},
		core.GravityOptions{Eps: 0.01},
	)
	if err != nil {
		log.Fatalf("gravity worker: %v", err)
	}

	// 4. A Plummer-sphere cluster, uploaded to the worker.
	stars := ic.Plummer(128, 42)
	if err := grav.SetParticles(stars); err != nil {
		log.Fatalf("set particles: %v", err)
	}

	k0, u0, err := grav.Energy(ctx)
	if err != nil {
		log.Fatalf("energy: %v", err)
	}

	// 5. Evolve for one physical megayear (converted, checked).
	tEnd, err := sim.TimeQuantity(units.New(1, units.Myr))
	if err != nil {
		log.Fatalf("time conversion: %v", err)
	}
	if err := grav.EvolveTo(ctx, tEnd); err != nil {
		log.Fatalf("evolve: %v", err)
	}

	k1, u1, err := grav.Energy(ctx)
	if err != nil {
		log.Fatalf("energy: %v", err)
	}

	fmt.Printf("evolved %d stars to t = 1 Myr (%.4f N-body times)\n", stars.Len(), tEnd)
	fmt.Printf("energy: E0 = %.6f, E1 = %.6f, |dE/E| = %.2e\n",
		k0+u0, k1+u1, math.Abs((k1+u1-k0-u0)/(k0+u0)))
	fmt.Printf("virtual wall time on the desktop worker: %v\n", sim.Elapsed())
}
