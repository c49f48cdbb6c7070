package core

import (
	"context"
	"errors"
	"testing"
	"time"

	"jungle/internal/amuse/data"
	"jungle/internal/amuse/ic"
	"jungle/internal/core/kernel"
	"jungle/internal/phys/abm"
)

// TestSetStateAppliesWholeOrNothing: a worker decodes a set_state frame
// straight into the columns its kernel owns, so everything that can refuse
// the frame — a column cut short, a count that does not match, an attribute
// the kind does not have, a value it does not accept — must be found before
// the first write. For every kind that applies state, each faulty frame
// carries changed values in the columns ahead of the fault: the call fails
// as a worker fault and the state reads back bit for bit what it was.
func TestSetStateAppliesWholeOrNothing(t *testing.T) {
	_, sim := labSim(t)
	ctx := context.Background()
	const n = 48
	stars := ic.Plummer(n, 61)
	shifted := func() ([]float64, []data.Vec3) {
		mass, pos := make([]float64, n), make([]data.Vec3, n)
		for i := range mass {
			mass[i], pos[i] = 2*stars.Mass[i], stars.Pos[i].Add(data.Vec3{1, 1, 1})
		}
		return mass, pos
	}
	mass, pos := shifted()

	grav, err := sim.NewGravity(ctx, WorkerSpec{Channel: ChannelMPI}, GravityOptions{Eps: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	if err := grav.SetParticles(stars); err != nil {
		t.Fatal(err)
	}
	gas := stars.Clone()
	for i := range gas.InternalEnergy {
		gas.InternalEnergy[i], gas.SmoothingLen[i] = 1, 0.1
	}
	hydro, err := sim.NewHydro(ctx, WorkerSpec{Channel: ChannelMPI}, HydroOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := hydro.SetParticles(gas); err != nil {
		t.Fatal(err)
	}
	p := abm.Params{W: 8, H: 6, D: 0.2, R: 0.8, B: 0.4, DT: 0.01}
	colony, err := sim.NewModel(ctx, Kind(abm.Kind), WorkerSpec{Channel: ChannelMPI},
		abm.SetupArgs{W: p.W, H: p.H, D: p.D, R: p.R, B: p.B, DT: p.DT})
	if err != nil {
		t.Fatal(err)
	}
	if err := colony.SetState(ctx, kernel.NewState(n).AddFloat(abm.AttrState, abm.InitialU(p, 5))); err != nil {
		t.Fatal(err)
	}
	badU := make([]float64, n)
	for i := range badU {
		badU[i] = 1
	}
	badU[n-1] = -1

	for _, k := range []struct {
		name   string
		m      *modelProxy
		attrs  []string
		faults map[string]*kernel.StatePayload
	}{
		{"gravity", grav.modelProxy, []string{data.AttrMass, data.AttrPos, data.AttrVel}, map[string]*kernel.StatePayload{
			"unknown third attribute": kernel.NewState(n).AddFloat(data.AttrMass, mass).AddVec(data.AttrPos, pos).AddVec("spin", pos),
			"wrong particle count":    kernel.NewState(n-1).AddFloat(data.AttrMass, mass[1:]).AddVec(data.AttrPos, pos[1:]),
		}},
		{"hydro", hydro.modelProxy, []string{data.AttrMass, data.AttrPos, data.AttrVel, data.AttrInternalEnergy}, map[string]*kernel.StatePayload{
			"unknown third attribute":        kernel.NewState(n).AddFloat(data.AttrMass, mass).AddVec(data.AttrPos, pos).AddVec("spin", pos),
			"non-positive energy, last of u": kernel.NewState(n).AddFloat(data.AttrMass, mass).AddFloat(data.AttrInternalEnergy, badU).AddVec(data.AttrPos, pos),
		}},
		{"abm", colony.modelProxy, []string{abm.AttrState, abm.AttrPotential, abm.AttrPos}, map[string]*kernel.StatePayload{
			"unknown third attribute": kernel.NewState(n).AddFloat(abm.AttrState, mass).AddFloat(abm.AttrPotential, mass).AddFloat("mood", mass),
			"wrong agent count":       kernel.NewState(n-1).AddFloat(abm.AttrState, mass[1:]),
		}},
	} {
		digest := func() uint64 {
			t.Helper()
			st, err := k.m.GetState(ctx, k.attrs...)
			if err != nil {
				t.Fatal(err)
			}
			return kernel.DigestState(st)
		}
		before := digest()
		frames := map[string][]byte{}
		for what, st := range k.faults {
			frame, err := kernel.MarshalState(st)
			if err != nil {
				t.Fatal(err)
			}
			frames[what] = frame
			if what == "unknown third attribute" {
				// The same two good columns, the third cut short on the wire.
				frames["third column short"] = frame[:len(frame)-5]
			}
		}
		for what, frame := range frames {
			c := k.m.issue(sim.clock.Now(), request{Method: "set_state", Args: frame}, callOpts{class: replayable})
			if err := c.Wait(ctx); !errors.Is(err, ErrWorkerFault) {
				t.Errorf("%s, %s: set_state = %v, want a worker fault", k.name, what, err)
			}
			if after := digest(); after != before {
				t.Errorf("%s, %s: the refused frame changed the state (%016x -> %016x)", k.name, what, before, after)
			}
		}
	}
}

// TestParkedSetStateReplaysFrame: GoSetState encodes the columns into the
// request frame before it returns, and that frame — not the caller's
// payload — is what a call parked behind a rebuild re-sends. With the
// worker of a replaceable model dead, one push fails against it and parks,
// a second is issued while the endpoint is being rebuilt; the caller
// scribbles over both payloads as soon as GoSetState has returned. The
// replacement must hold the columns as they were at issue, and so must the
// replacement cache the next death replays.
func TestParkedSetStateReplaysFrame(t *testing.T) {
	tb, sim := labSim(t)
	ctx := context.Background()
	g, err := sim.NewGravity(ctx, WorkerSpec{Channel: ChannelIbis}, GravityOptions{Eps: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	g.EnableReplacement()
	const n = 64
	stars := ic.Plummer(n, 67)
	if err := g.SetParticles(stars); err != nil {
		t.Fatal(err)
	}
	want := stars.Clone()
	for i := 0; i < n; i++ {
		want.Vel[i] = data.Vec3{float64(i), 0.5, -1}
		want.Mass[i] = 3 + float64(i)
	}
	wantSt, err := kernel.GatherState(want)
	if err != nil {
		t.Fatal(err)
	}
	wantSt.Key = nil
	wantDigest := kernel.DigestState(wantSt)

	kill := func() {
		t.Helper()
		died := make(chan int, 1)
		tb.Daemon.OnWorkerDied = func(id int) { died <- id }
		tb.Daemon.KillWorker(g.WorkerIDs()[0])
		select {
		case <-died:
		case <-time.After(10 * time.Second):
			t.Fatal("death not detected")
		}
	}
	holds := func(what string) {
		t.Helper()
		st, err := g.GetState(ctx)
		if err != nil {
			t.Fatal(err)
		}
		st.Key = nil
		if got := kernel.DigestState(st); got != wantDigest {
			t.Fatalf("%s: the worker holds %016x, the columns at issue digest to %016x", what, got, wantDigest)
		}
	}

	kill()
	vel := kernel.NewState(n).AddVec(data.AttrVel, append([]data.Vec3(nil), want.Vel...))
	mass := kernel.NewState(n).AddFloat(data.AttrMass, append([]float64(nil), want.Mass...))
	first := g.GoSetState(vel) // sent to the dead worker: fails, parks, starts the rebuild
	for i := range vel.VecCols[0] {
		vel.VecCols[0][i] = data.Vec3{-9, -9, -9}
	}
	second := g.GoSetState(mass) // parks at issue if the rebuild is still under way
	for i := range mass.FloatCols[0] {
		mass.FloatCols[0][i] = -9
	}
	if err := Gather(ctx, first, second); err != nil {
		t.Fatalf("parked pushes: %v", err)
	}
	holds("after the replayed pushes")

	// The cache the next replacement overlays was merged from the frames too.
	kill()
	holds("after a second replacement, rebuilt from the cache")
}
