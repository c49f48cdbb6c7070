package core

import (
	"context"
	"errors"
	"testing"

	"jungle/internal/amuse/data"
	"jungle/internal/amuse/ic"
)

// BenchmarkBulkRound is one round of the data plane under large messages —
// the in-repo equivalent of bench/'s bulk_state op at 10 000 stars: the
// columns worker to worker (TransferState), back through the coupler
// (GetState) and out again (SetState). B/op is the number
// TestBulkRoundAllocGate gates; virtual-us/round is the second round's
// virtual time — one fixed round, so the number does not depend on b.N.
func BenchmarkBulkRound(b *testing.B) {
	tb, err := NewDSLTestbed()
	if err != nil {
		b.Fatal(err)
	}
	defer tb.Close()
	sim := NewSimulation(context.Background(), tb.Daemon, nil)
	defer sim.Stop()
	ctx := context.Background()
	const n = 10_000
	start := func(resource string, seed int64) *Gravity {
		g, err := sim.NewGravity(ctx, WorkerSpec{Resource: resource, Channel: ChannelIbis}, GravityOptions{Eps: 0.01})
		if err != nil {
			b.Fatal(err)
		}
		if err := g.SetParticles(ic.Plummer(n, seed)); err != nil {
			b.Fatal(err)
		}
		return g
	}
	src, dst := start(tb.SiteA, 7), start(tb.SiteB, 99)
	attrs := []string{data.AttrMass, data.AttrPos, data.AttrVel}
	round := func() {
		if err := sim.TransferState(ctx, src, dst, attrs...); err != nil {
			b.Fatal(err)
		}
		st, err := dst.GetState(ctx, attrs...)
		if err != nil {
			b.Fatal(err)
		}
		if err := src.SetState(ctx, st); err != nil {
			b.Fatal(err)
		}
	}
	round()
	from := sim.Elapsed()
	round()
	virtual := sim.Elapsed() - from
	b.ReportAllocs()
	// b.Loop stops the timer before the deferred teardown runs.
	for b.Loop() {
		round()
	}
	b.ReportMetric(float64(virtual.Nanoseconds())/1e3, "virtual-us/round")
}

// BenchmarkLabTestbedBuild is the set-up every session, experiment and
// bench/ workload pays first: the Fig. 12 network, five hubs linked and
// converged on one link-state view, the daemon — and its teardown. Most of
// its allocations are hello and gossip frames being decoded (DESIGN.md §
// Overlay routing: what a hub floods).
func BenchmarkLabTestbedBuild(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tb, err := NewLabTestbed()
		if err != nil {
			b.Fatal(err)
		}
		tb.Close()
	}
}

// BenchmarkWorkerStartStop is the worker lifecycle a session pays once per
// model — bench/'s session_churn pays it every op: a solo ibis-channel
// gravity worker started on the lab testbed (job, pool join, elections,
// both ports), one call, and Stop, which returns once the worker's job has
// ended. The testbed is built, and one cycle run, before the timer.
func BenchmarkWorkerStartStop(b *testing.B) {
	tb, err := NewLabTestbed()
	if err != nil {
		b.Fatal(err)
	}
	defer tb.Close()
	ctx := context.Background()
	stars := ic.Plummer(16, 1)
	cycle := func() {
		sim := NewSimulation(ctx, tb.Daemon, nil)
		g, err := sim.NewGravity(ctx, WorkerSpec{Channel: ChannelIbis}, GravityOptions{Eps: 0.01})
		if err == nil {
			err = g.SetParticles(stars)
		}
		if err := errors.Join(err, sim.Stop()); err != nil {
			b.Fatal(err)
		}
	}
	cycle()
	b.ReportAllocs()
	for b.Loop() {
		cycle()
	}
}
