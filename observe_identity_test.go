package jungle

// The observability plane is default-on, so its regression guarantee is
// byte-identity: recording must be passive. For each headline benchmark
// scenario (pipelined kicks, a sharded gang, checkpoint recovery) a run
// with the plane on and a run with it off must end at the same virtual
// time with bit-identical model state.

import (
	"context"
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"
	"time"

	"jungle/internal/amuse/data"
	"jungle/internal/amuse/ic"
	"jungle/internal/core"
)

// gravityDigest is the FNV-1a hash of the model's phase-space state, the
// same observable the checkpoint bit-compatibility guarantee uses.
func gravityDigest(t *testing.T, g *core.Gravity) uint64 {
	t.Helper()
	st, err := g.GetState(nil, data.AttrPos, data.AttrVel)
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	var buf [8]byte
	for _, col := range [][]data.Vec3{st.Vec(data.AttrPos), st.Vec(data.AttrVel)} {
		for _, v := range col {
			for d := 0; d < 3; d++ {
				binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v[d]))
				h.Write(buf[:])
			}
		}
	}
	return h.Sum64()
}

// runArms executes one scenario twice — plane on (the default), plane off
// (Monitor nilled before any worker starts) — and requires equal virtual
// elapsed times and state digests.
func runArms(t *testing.T, scenario func(t *testing.T, observed bool) (time.Duration, uint64)) {
	t.Helper()
	onTime, onDigest := scenario(t, true)
	offTime, offDigest := scenario(t, false)
	if onTime != offTime {
		t.Fatalf("virtual time diverged: plane on %v, plane off %v", onTime, offTime)
	}
	if onDigest != offDigest {
		t.Fatalf("state diverged: plane on %016x, plane off %016x", onDigest, offDigest)
	}
	if onTime <= 0 {
		t.Fatal("scenario advanced no virtual time; the identity check checked nothing")
	}
}

func TestPlaneByteIdentityPipelinedKick(t *testing.T) {
	stars := ic.Plummer(64, 30)
	runArms(t, func(t *testing.T, observed bool) (time.Duration, uint64) {
		tb, err := core.NewLabTestbed()
		if err != nil {
			t.Fatal(err)
		}
		defer tb.Close()
		sim := core.NewSimulation(context.Background(), tb.Daemon, nil)
		defer sim.Stop()
		if !observed {
			sim.Monitor = nil
		}
		var models []*core.Gravity
		for _, r := range []string{"lgm", "das4-vu", "das4-uva", "das4-tud"} {
			g, err := sim.NewGravity(context.Background(),
				core.WorkerSpec{Resource: r, Channel: core.ChannelIbis},
				core.GravityOptions{Eps: 0.01})
			if err != nil {
				t.Fatal(err)
			}
			if err := g.SetParticles(stars); err != nil {
				t.Fatal(err)
			}
			models = append(models, g)
		}
		dv := make([]data.Vec3, stars.Len())
		calls := make([]core.Waiter, len(models))
		for i := 0; i < 3; i++ {
			for j, g := range models {
				calls[j] = g.GoKick(dv)
			}
			if err := core.Gather(context.Background(), calls...); err != nil {
				t.Fatal(err)
			}
		}
		if err := models[0].EvolveTo(context.Background(), 1.0/64); err != nil {
			t.Fatal(err)
		}
		return sim.Elapsed(), gravityDigest(t, models[0])
	})
}

func TestPlaneByteIdentityShardedKick(t *testing.T) {
	stars := ic.Plummer(512, 5)
	runArms(t, func(t *testing.T, observed bool) (time.Duration, uint64) {
		tb, err := core.NewDSLTestbed()
		if err != nil {
			t.Fatal(err)
		}
		defer tb.Close()
		sim := core.NewSimulation(context.Background(), tb.Daemon, nil)
		defer sim.Stop()
		if !observed {
			sim.Monitor = nil
		}
		g, err := sim.NewGravity(context.Background(),
			core.WorkerSpec{Resource: tb.SiteA, Channel: core.ChannelIbis, Workers: 4},
			core.GravityOptions{Eps: 0.01})
		if err != nil {
			t.Fatal(err)
		}
		if err := g.SetParticles(stars); err != nil {
			t.Fatal(err)
		}
		dv := make([]data.Vec3, stars.Len())
		target := 0.0
		for i := 0; i < 2; i++ {
			if err := g.Kick(context.Background(), dv); err != nil {
				t.Fatal(err)
			}
			target += 1e-6
			if err := g.EvolveTo(context.Background(), target); err != nil {
				t.Fatal(err)
			}
		}
		return sim.Elapsed(), gravityDigest(t, g)
	})
}

func TestPlaneByteIdentityCheckpointRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	const tCkpt = 1.0 / 16
	stars := ic.Plummer(128, 77)
	runArms(t, func(t *testing.T, observed bool) (time.Duration, uint64) {
		tb, err := core.NewSC11Testbed()
		if err != nil {
			t.Fatal(err)
		}
		defer tb.Close()
		sim := core.NewSimulation(context.Background(), tb.Daemon, nil)
		defer sim.Stop()
		if !observed {
			sim.Monitor = nil
		}
		g, err := sim.NewGravity(context.Background(),
			core.WorkerSpec{Resource: "lgm", Channel: core.ChannelIbis},
			core.GravityOptions{Kernel: "phigrape-gpu", Eps: 0.01})
		if err != nil {
			t.Fatal(err)
		}
		if err := g.SetParticles(stars); err != nil {
			t.Fatal(err)
		}
		if err := g.EvolveTo(context.Background(), tCkpt); err != nil {
			t.Fatal(err)
		}
		if _, err := sim.Checkpoint(context.Background()); err != nil {
			t.Fatal(err)
		}
		died := make(chan int, 1)
		tb.Daemon.OnWorkerDied = func(id int) {
			select {
			case died <- id:
			default:
			}
		}
		tb.Daemon.KillWorker(g.WorkerIDs()[0])
		select {
		case <-died:
		case <-time.After(10 * time.Second):
			t.Fatal("death not observed")
		}
		// The next call triggers replacement: substitute worker, setup
		// replay, snapshot restore — the restore gauge must record without
		// perturbing any of it.
		if _, _, err := g.Energy(context.Background()); err != nil {
			t.Fatal(err)
		}
		return sim.Elapsed(), gravityDigest(t, g)
	})
}
