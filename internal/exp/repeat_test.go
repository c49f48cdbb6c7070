package exp

import (
	"context"
	"maps"
	"testing"
	"time"

	"jungle/internal/core"
)

// TestCoupledStepVirtualTimeRepeats: virtual time is a function of the
// inputs alone. Five fresh lab testbeds run the repo benchmark's
// coupled_step — the jungle placement at a tenth of the default workload —
// for 8 bridge steps on one seed, and every one must report the same
// elapsed virtual time to the nanosecond, the same bytes on the wire per
// traffic class and the same star digest. Each step opens eight hub-routed
// circuits; while a wall-clock window chose among their flooded copies, and
// while calls were stamped with a clock that advanced whenever a response
// happened to be delivered, runs differed by milliseconds. Hub-class bytes
// are counted from the finished testbed on: how many gossip frames the
// hubs exchange while the overlay is built depends on how their pushes
// interleave, and rides no virtual clock.
func TestCoupledStepVirtualTimeRepeats(t *testing.T) {
	w := DefaultWorkload().Scaled(0.1)
	w.Seed = 1
	type outcome struct {
		elapsed time.Duration
		bytes   map[string]int
		digest  uint64
	}
	run := func() outcome {
		tb, err := core.NewLabTestbed()
		if err != nil {
			t.Fatal(err)
		}
		defer tb.Close()
		gossip := tb.Recorder.TotalByClass()["hub"]
		ctx := context.Background()
		jungle := LabScenarios(tb)[3]
		if jungle.Name != "jungle" {
			t.Fatalf("scenario 3 is %q, want jungle", jungle.Name)
		}
		sb, err := startScenario(ctx, tb, w, jungle)
		if err != nil {
			t.Fatal(err)
		}
		defer sb.sim.Stop()
		for i := 0; i < 8; i++ {
			if err := sb.bridge.Step(ctx); err != nil {
				t.Fatalf("step %d: %v", i, err)
			}
		}
		digest, err := sb.stateDigest()
		if err != nil {
			t.Fatal(err)
		}
		bytes := tb.Recorder.TotalByClass()
		bytes["hub"] -= gossip
		return outcome{sb.sim.Elapsed(), bytes, digest}
	}
	first := run()
	for i := 1; i < 5; i++ {
		if got := run(); got.elapsed != first.elapsed || got.digest != first.digest || !maps.Equal(got.bytes, first.bytes) {
			t.Errorf("instance %d: elapsed %v bytes %v digest %#x\ninstance 0: elapsed %v bytes %v digest %#x",
				i, got.elapsed, got.bytes, got.digest, first.elapsed, first.bytes, first.digest)
		}
	}
}
