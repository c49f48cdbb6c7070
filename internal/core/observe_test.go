package core

import (
	"context"
	"testing"
	"time"

	"jungle/internal/amuse/ic"
	"jungle/internal/phys/bridge"
	"jungle/internal/trace"
)

// TestObservabilityDefaultOn: a simulation built on any testbed wires the
// testbed's recorder as its monitor with no opt-in, and a nil monitor
// turns the plane off without touching the call path.
func TestObservabilityDefaultOn(t *testing.T) {
	tb, sim := labSim(t)
	if sim.Monitor != tb.Recorder {
		t.Fatal("simulation did not adopt the deployment recorder by default")
	}
	sim.Monitor = nil // plane off for workers created from here on
	g, err := sim.NewGravity(context.Background(), WorkerSpec{Resource: "desktop", Channel: ChannelMPI},
		GravityOptions{Eps: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	if err := g.SetParticles(ic.Plummer(16, 3)); err != nil {
		t.Fatal(err)
	}
	if rows := tb.Recorder.CallTable(); len(rows) != 0 {
		t.Fatalf("plane off but %d call rows recorded: %+v", len(rows), rows)
	}
}

// TestObservabilityHonesty is the E2E honesty check: run the SC11
// worst-case scenario and hold the plane's numbers to the run's ground
// truth — every exercised method shows calls with non-zero latency
// quantiles at or above its channel floor, the per-link transfer counters
// equal the session's TransferStats, and a checkpoint lands in the store
// gauges.
func TestObservabilityHonesty(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	tb, err := NewSC11Testbed()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(tb.Close)
	sim := NewSimulation(context.Background(), tb.Daemon, nil)
	t.Cleanup(func() { sim.Stop() })

	stars, gas, err := ic.EmbeddedCluster(ic.ClusterSpec{Stars: 30, Gas: 120, GasFrac: 0.5, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	g, err := sim.NewGravity(context.Background(), WorkerSpec{Resource: "lgm", Channel: ChannelIbis},
		GravityOptions{Kernel: "phigrape-gpu", Eps: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	if err := g.SetParticles(stars); err != nil {
		t.Fatal(err)
	}
	h, err := sim.NewHydro(context.Background(), WorkerSpec{Resource: "das4-vu", Channel: ChannelIbis},
		HydroOptions{SelfGravity: true, EpsGrav: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	if err := h.SetParticles(gas); err != nil {
		t.Fatal(err)
	}
	f, err := sim.NewField(context.Background(), WorkerSpec{Resource: "das4-tud", Channel: ChannelIbis},
		FieldOptions{Kernel: "octgrav", Eps: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	br, err := bridge.New(bridge.Config{Stars: g, Gas: h, Coupler: f, DT: 1.0 / 32, Eps: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	if err := br.EvolveTo(context.Background(), 2.0/32); err != nil {
		t.Fatal(err)
	}
	// One model without a peer plane, so the checkpoint below takes both
	// ways into the store: three streamed, this one hairpinned.
	local, err := sim.NewGravity(context.Background(), WorkerSpec{Resource: "laptop", Channel: ChannelMPI},
		GravityOptions{Eps: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	if err := local.SetParticles(ic.Plummer(16, 3)); err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Checkpoint(context.Background()); err != nil {
		t.Fatal(err)
	}

	// Every method the run exercised must show honest latency: non-zero
	// count and p50/p99 at or above the channel's configured floor (every
	// SC11 round trip crosses a routed path, so floors are all positive).
	rows := tb.Recorder.CallTable()
	if len(rows) == 0 {
		t.Fatal("no call telemetry recorded")
	}
	methods := map[string]bool{}
	for _, row := range rows {
		methods[row.Method] = true
		hist := row.Stats.Hist
		if hist.Count == 0 {
			t.Fatalf("%v: zero calls recorded", row.CallKey)
		}
		if row.Stats.Floor <= 0 {
			t.Fatalf("%v: no channel floor recorded", row.CallKey)
		}
		p50, p99 := hist.Quantile(0.5), hist.Quantile(0.99)
		if p50 <= 0 || p99 <= 0 {
			t.Fatalf("%v: zero latency quantiles p50=%d p99=%d", row.CallKey, p50, p99)
		}
		if min := time.Duration(hist.Min); min < row.Stats.Floor {
			t.Fatalf("%v: min latency %v below the configured floor %v — the plane is not honest",
				row.CallKey, min, row.Stats.Floor)
		}
	}
	for _, want := range []string{"setup", "set_particles", "kick", "evolve", "offer_state", "accept_state", "offer_checkpoint"} {
		if !methods[want] {
			t.Fatalf("method %q exercised but missing from the call table (have %v)", want, methods)
		}
	}

	if st := assertLinksMatchStats(t, tb, sim); st.Direct == 0 || st.Hairpin == 0 {
		t.Fatalf("transfer stats %+v: the run must both stream and hairpin, or the honesty check checked nothing", st)
	}

	// The checkpoint pass must land in the store gauges, one row per model
	// kind, with positive blob sizes.
	store := tb.Recorder.StoreTable()
	if len(store) == 0 {
		t.Fatal("checkpoint recorded no store gauges")
	}
	for _, row := range store {
		if row.Stats.Checkpoints == 0 || row.Stats.LastRaw <= 0 {
			t.Fatalf("store gauges for %s not honest: %+v", row.Model, row.Stats)
		}
	}

	// Queue depths were sampled for every worker the run started.
	if len(tb.Recorder.QueueTable()) == 0 {
		t.Fatal("no queue-depth telemetry recorded")
	}
}

// assertLinksMatchStats: the per-link transfer counters of the testbed's
// recorder must agree, event for event, with the session's own
// TransferStats, which it returns.
func assertLinksMatchStats(t *testing.T, tb *Testbed, sim *Simulation) TransferStats {
	t.Helper()
	st := sim.TransferStats()
	var link TransferStats
	for _, row := range tb.Recorder.LinkHealthTable(-1, trace.DefaultStaleAfter) {
		link.Direct += row.Transfers.Direct
		link.Hairpin += row.Transfers.Hairpin
		link.Fallback += row.Transfers.Fallback
	}
	if link != st {
		t.Fatalf("link transfer counters %+v != session TransferStats %+v", link, st)
	}
	return st
}

// TestCalibrateDrift is the calibration loop's acceptance bar: on both
// multi-site testbeds, probing every configured directed edge measures a
// goodput within 10% of the configured vnet bandwidth.
func TestCalibrateDrift(t *testing.T) {
	for name, build := range map[string]func() (*Testbed, error){
		"dsl":  NewDSLTestbed,
		"sc11": NewSC11Testbed,
	} {
		t.Run(name, func(t *testing.T) {
			tb, err := build()
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(tb.Close)
			specs := tb.LinkSpecs()
			if len(specs) == 0 {
				t.Fatal("no configured edges to calibrate")
			}
			cal, _, err := tb.Calibrate(0)
			if err != nil {
				t.Fatal(err)
			}
			if len(cal.Links) != len(specs) {
				t.Fatalf("calibration covered %d edges, configured %d", len(cal.Links), len(specs))
			}
			worst, all := cal.MaxLinkDrift()
			if !all {
				t.Fatalf("unmeasured edges in the calibration:\n%s", cal.Render())
			}
			if worst >= 0.10 {
				t.Fatalf("worst link drift %.2f%% breaches the 10%% bar:\n%s", worst*100, cal.Render())
			}
		})
	}
}
