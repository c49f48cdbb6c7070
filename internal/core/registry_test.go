package core

import (
	"context"
	"errors"
	"math"
	"testing"

	"jungle/internal/amuse/data"
	"jungle/internal/amuse/ic"
	"jungle/internal/core/kernel"
	"jungle/internal/phys/analytic"
)

// TestSeedKindsRegistered: importing internal/kernels must register the
// four kinds the paper's evaluation uses — the registry replaces the old
// construction switch without losing a kind.
func TestSeedKindsRegistered(t *testing.T) {
	for _, k := range []Kind{KindGravity, KindHydro, KindStellar, KindField} {
		if !kernel.Registered(string(k)) {
			t.Fatalf("seed kind %q not registered", k)
		}
	}
}

// TestUnknownKindReturnsErrBadKind: asking for an unregistered kind fails
// fast with ErrBadKind, before any worker job is submitted.
func TestUnknownKindReturnsErrBadKind(t *testing.T) {
	_, sim := labSim(t)
	_, err := sim.NewModel(context.Background(), "no-such-kind", WorkerSpec{Resource: "desktop", Channel: ChannelMPI}, kernel.Empty{})
	if !errors.Is(err, ErrBadKind) {
		t.Fatalf("err = %v, want ErrBadKind", err)
	}
}

// TestBatchedStateMatchesPerCall: pushing a whole mass column through one
// set_state must leave the worker in exactly the state N per-particle
// set_mass calls produce, and a batched Pull must read back what three
// per-attribute getters read.
func TestBatchedStateMatchesPerCall(t *testing.T) {
	_, sim := labSim(t)
	stars := ic.Plummer(64, 12)

	newWorker := func() *Gravity {
		g, err := sim.NewGravity(context.Background(), WorkerSpec{Resource: "lgm", Channel: ChannelIbis},
			GravityOptions{Kernel: "phigrape-gpu", Eps: 0.01})
		if err != nil {
			t.Fatal(err)
		}
		if err := g.SetParticles(stars); err != nil {
			t.Fatal(err)
		}
		return g
	}

	masses := make([]float64, stars.Len())
	for i := range masses {
		masses[i] = 1.0/float64(stars.Len()) + 1e-4*float64(i)
	}

	perCall := newWorker()
	for i, m := range masses {
		perCall.SetMass(i, m)
	}
	if err := perCall.Err(); err != nil {
		t.Fatal(err)
	}

	batched := newWorker()
	st := kernel.NewState(stars.Len()).AddFloat(data.AttrMass, masses)
	if err := batched.SetState(context.Background(), st); err != nil {
		t.Fatal(err)
	}

	a, b := perCall.Masses(), batched.Masses()
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			t.Fatalf("mass %d: per-call %v != batched %v", i, a[i], b[i])
		}
	}

	// Batched pull == per-attribute getters.
	out := stars.Clone()
	if err := batched.GoPull(out).Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	pos := batched.Positions()
	for i := range pos {
		if out.Pos[i] != pos[i] {
			t.Fatalf("position %d: pull %v != getter %v", i, out.Pos[i], pos[i])
		}
		if math.Float64bits(out.Mass[i]) != math.Float64bits(b[i]) {
			t.Fatalf("mass %d: pull %v != getter %v", i, out.Mass[i], b[i])
		}
	}
}

// TestReplacementReplaysPushedState: columns pushed through the batched
// set_state path and then checkpointed must survive a transparent worker
// replacement — the snapshot, not the upload, is what a replacement holds.
func TestReplacementReplaysPushedState(t *testing.T) {
	tb, sim := labSim(t)
	g, err := sim.NewGravity(context.Background(), WorkerSpec{Channel: ChannelIbis},
		GravityOptions{Kernel: "phigrape-cpu", Eps: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	stars := ic.Plummer(16, 21)
	if err := g.SetParticles(stars); err != nil {
		t.Fatal(err)
	}
	masses := make([]float64, stars.Len())
	for i := range masses {
		masses[i] = 0.5 + float64(i)
	}
	if err := g.SetState(context.Background(), kernel.NewState(len(masses)).AddFloat(data.AttrMass, masses)); err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Checkpoint(context.Background()); err != nil {
		t.Fatal(err)
	}

	died := make(chan int, 1)
	tb.Daemon.OnWorkerDied = func(id int) { died <- id }
	tb.Daemon.KillWorker(g.workers[0])
	<-died

	got := g.Masses() // triggers replacement + state replay
	if err := g.Err(); err != nil {
		t.Fatal(err)
	}
	for i := range masses {
		if got[i] != masses[i] {
			t.Fatalf("mass %d after replacement: %v, want pushed %v", i, got[i], masses[i])
		}
	}
}

// TestExternalKindRunsUnmodifiedCore: the analytic background-field kind
// registers from internal/phys/analytic — a package core does not know —
// and serves calls across the full ibis channel stack through the generic
// Model handle.
func TestExternalKindRunsUnmodifiedCore(t *testing.T) {
	_, sim := labSim(t)
	pot := analytic.Plummer{M: 2, A: 0.5}
	m, err := sim.NewModel(context.Background(), Kind(analytic.Kind), WorkerSpec{Resource: "das4-uva", Channel: ChannelIbis},
		analytic.SetupArgs{M: pot.M, A: pot.A})
	if err != nil {
		t.Fatal(err)
	}
	field := analytic.NewRemote(m)
	targets := []data.Vec3{{1, 0, 0}, {0, 2, 0}, {0.3, -0.4, 0.5}}
	acc, p, _ := field.FieldAt(context.Background(), nil, nil, targets, 0)
	if err := m.Err(); err != nil {
		t.Fatal(err)
	}

	wantAcc := make([]data.Vec3, len(targets))
	wantPot := make([]float64, len(targets))
	pot.FieldAt(targets, wantAcc, wantPot)
	for i := range targets {
		if acc[i] != wantAcc[i] || p[i] != wantPot[i] {
			t.Fatalf("target %d: remote (%v, %v) != analytic (%v, %v)", i, acc[i], p[i], wantAcc[i], wantPot[i])
		}
	}
	if sim.Elapsed() <= 0 {
		t.Fatal("virtual clock did not advance for remote analytic worker")
	}
}
