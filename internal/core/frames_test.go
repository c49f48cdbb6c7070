package core

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"slices"
	"strings"
	"testing"

	"jungle/internal/amuse/data"
	"jungle/internal/amuse/ic"
	"jungle/internal/core/kernel"
	"jungle/internal/deploy"
	"jungle/internal/phys/abm"
	"jungle/internal/vtime"
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

// TestSetParticlesLoadsWhatItWasSent: a worker keeps the columns it
// decodes from a set_particles upload, so an upload that is not one particle
// set must be refused before the first write — a frame cut at a column's
// end (the codec's append-only rule decodes it as one whose last columns are
// missing), a column of another length, and for hydro a missing u or h. Each
// is a worker fault that names the column, and the state reads back as it
// was.
func TestSetParticlesLoadsWhatItWasSent(t *testing.T) {
	res := &deploy.Resource{Name: "test", Frontend: "test",
		CPU: &vtime.Device{Name: "cpu", Kind: vtime.CPU, Gflops: 1, Cores: 4}}
	const n = 32
	gas := ic.Plummer(n, 9)
	for i := range gas.InternalEnergy {
		gas.InternalEnergy[i], gas.SmoothingLen[i] = 1, 0.1
	}
	full := kernel.ParticlesToPayload(gas)
	// cut is the upload of full cut just behind its first cols columns: the
	// encoding of those columns, less the length bytes of the empty ones.
	cut := func(cols int) []byte {
		pl := full
		v := reflect.ValueOf(&pl).Elem()
		for i := cols; i < v.NumField(); i++ {
			v.Field(i).SetZero()
		}
		b := kernel.Encode(pl)
		return b[:len(b)-(v.NumField()-cols)]
	}
	short := func(edit func(*kernel.ParticlesPayload)) []byte {
		pl := full
		edit(&pl)
		return kernel.Encode(pl)
	}
	cases := []struct {
		name, column string
		args         []byte
		hydroOnly    bool
	}{
		{"cut after mass", "Pos", cut(1), false},
		{"cut after positions", "Vel", cut(2), false},
		{"cut after velocities", "U", cut(3), true},
		{"cut after u", "H", cut(4), true},
		{"short positions", "Pos", short(func(pl *kernel.ParticlesPayload) { pl.Pos = pl.Pos[1:] }), false},
		{"short velocities", "Vel", short(func(pl *kernel.ParticlesPayload) { pl.Vel = pl.Vel[1:] }), false},
		{"long u", "U", short(func(pl *kernel.ParticlesPayload) { pl.U = append(pl.U, 1) }), false},
		{"short h", "H", short(func(pl *kernel.ParticlesPayload) { pl.H = pl.H[1:] }), false},
		{"short keys", "Key", short(func(pl *kernel.ParticlesPayload) { pl.Key = pl.Key[1:] }), false},
	}
	for _, k := range []struct {
		kind  Kind
		setup []byte
		attrs []string
	}{
		{KindGravity, kernel.Encode(kernel.SetupGravityArgs{Kernel: "phigrape-cpu", Eps: 0.01}),
			[]string{data.AttrMass, data.AttrPos, data.AttrVel}},
		{KindHydro, kernel.Encode(kernel.SetupHydroArgs{}),
			[]string{data.AttrMass, data.AttrPos, data.AttrVel, data.AttrInternalEnergy, data.AttrSmoothingLen}},
	} {
		t.Run(string(k.kind), func(t *testing.T) {
			svc, err := newService(k.kind, res, nil, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			defer svc.Close()
			digest := func() uint64 {
				t.Helper()
				out, _, err := svc.Dispatch("get_state", kernel.AppendStateRequest(nil, &kernel.StateRequest{Attrs: k.attrs}), 0)
				if err != nil {
					t.Fatal(err)
				}
				st, err := kernel.UnmarshalState(out.Bytes())
				if err != nil {
					t.Fatal(err)
				}
				return kernel.DigestState(st)
			}
			for _, c := range []struct {
				method string
				args   []byte
			}{{"setup", k.setup}, {"set_particles", kernel.Encode(full)}} {
				if _, _, err := svc.Dispatch(c.method, c.args, 0); err != nil {
					t.Fatalf("%s: %v", c.method, err)
				}
			}
			want := digest()
			for _, c := range cases {
				if c.hydroOnly && k.kind != KindHydro {
					continue
				}
				_, _, err := svc.Dispatch("set_particles", c.args, 0)
				if kernel.ClassifyErr(err) != kernel.CodeWorkerFault || !strings.Contains(err.Error(), "column "+c.column+" ") {
					t.Errorf("%s: %v, want a worker fault naming column %s", c.name, err, c.column)
				}
				if got := digest(); got != want {
					t.Errorf("%s: state digest %016x after the refusal, want %016x", c.name, got, want)
				}
			}
		})
	}
}

// TestKeylessUploadIsKeyedOneToN: gravity keys a set that was uploaded, or
// checkpointed, without a key column 1..N, so get_state, a checkpoint and a
// restore of that checkpoint all carry those keys.
func TestKeylessUploadIsKeyedOneToN(t *testing.T) {
	res := &deploy.Resource{Name: "test", Frontend: "test",
		CPU: &vtime.Device{Name: "cpu", Kind: vtime.CPU, Gflops: 1, Cores: 4}}
	const n = 5
	pl := kernel.ParticlesToPayload(ic.Plummer(n, 3))
	pl.Key = nil
	want := []uint64{1, 2, 3, 4, 5}
	svc, err := newService(KindGravity, res, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	dispatch := func(method string, args []byte) []byte {
		t.Helper()
		out, _, err := svc.Dispatch(method, args, 0)
		if err != nil {
			t.Fatalf("%s: %v", method, err)
		}
		return bytes.Clone(out.Bytes())
	}
	keys := func(what string) {
		t.Helper()
		st, err := kernel.UnmarshalState(dispatch("get_state", kernel.AppendStateRequest(nil, &kernel.StateRequest{Attrs: []string{data.AttrMass}})))
		if err != nil || !slices.Equal(st.Key, want) {
			t.Fatalf("get_state after %s: keys %v (%v), want %v", what, st.Key, err, want)
		}
	}
	dispatch("setup", kernel.Encode(kernel.SetupGravityArgs{Kernel: "phigrape-cpu", Eps: 0.01}))
	dispatch("set_particles", kernel.Encode(pl))
	keys("a keyless upload")
	frame := dispatch(kernel.MethodCheckpoint, nil)
	snap, err := kernel.UnmarshalSnapshot(frame)
	if err != nil || !slices.Equal(snap.State.Key, want) {
		t.Fatalf("checkpoint: keys %v (%v), want %v", snap.State.Key, err, want)
	}
	snap.State.Key = nil
	keyless, err := kernel.AppendSnapshot(nil, snap)
	if err != nil {
		t.Fatal(err)
	}
	dispatch(kernel.MethodRestore, keyless)
	keys("a keyless restore")
}

// TestParkedSetStateReplaysFrame: GoSetState encodes the columns into the
// request frame before it returns, and that frame — not the caller's
// payload — is what a call parked behind a rebuild re-sends. With the
// worker of a checkpointed model dead, one push fails against it and parks,
// a second is issued while the endpoint is being rebuilt; the caller
// scribbles over both payloads as soon as GoSetState has returned. The
// replacement must hold the columns as they were at issue. The pushes land
// after the checkpoint, so the next death is not rebuilt: it is a
// structured error naming the push the snapshot does not cover.
func TestParkedSetStateReplaysFrame(t *testing.T) {
	tb, sim := labSim(t)
	ctx := context.Background()
	g, err := sim.NewGravity(ctx, WorkerSpec{Channel: ChannelIbis}, GravityOptions{Eps: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	const n = 64
	stars := ic.Plummer(n, 67)
	if err := g.SetParticles(stars); err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Checkpoint(ctx); err != nil {
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

	killWorker(t, tb.Daemon, g.WorkerIDs()[0])
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

	killWorker(t, tb.Daemon, g.WorkerIDs()[0])
	_, err = g.GetState(ctx)
	mustFailUncovered(t, err, "set_state")
}
