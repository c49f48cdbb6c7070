package core

// Kind-conformance suites: every registered worker kind that claims
// Shardable + Checkpointable must satisfy the same contracts — gang
// execution reproduces solo execution bit for bit, checkpoints round-trip
// through the daemon store, and a dead gang rank is replaced without
// perturbing the trajectory. The suites are table-driven over the generic
// Model handle so a new kind (here: the agent-based abm colony) reuses
// the gravity suites instead of copying them.

import (
	"context"
	"testing"
	"time"

	"jungle/internal/amuse/data"
	"jungle/internal/amuse/ic"
	"jungle/internal/core/kernel"
	"jungle/internal/phys/abm"
)

// conformKind drives one worker kind through the conformance suites via
// the generic Model handle only — no kind-specific typed wrapper, so the
// suite exercises exactly what an externally-linked kind gets.
type conformKind struct {
	name     string
	kind     Kind
	setup    any
	soloSpec WorkerSpec
	gangSpec WorkerSpec
	// seed installs the deterministic initial state.
	seed func(t *testing.T, m *Model)
	// leg advances the model one work leg (legs are cumulative and
	// resumable: running legs 1..n from a checkpoint after leg k must
	// reproduce an uninterrupted run).
	leg func(t *testing.T, m *Model, i int)
	// goLong starts the long asynchronous leg the fault suites kill a
	// worker inside of.
	goLong func(m *Model) Waiter
	// digest hashes the model's end state (bit patterns).
	digest func(t *testing.T, m *Model) uint64
}

// Gravity legs end at i/64. The long leg the fault suite kills a rank
// inside of ends at conformLongEnd; conformPostLeg is the first leg the
// suite runs after it, and has to end later because the model clock only
// moves forward.
const (
	conformLongEnd = 2.0
	conformPostLeg = 136 // 136/64 = 2.125 > conformLongEnd
)

var abmConformParams = abm.Params{W: 48, H: 48, D: 0.2, R: 0.8, B: 0.4, DT: 0.01}

// abmConformBias is the fixed potential the conformance colonies evolve
// in (deterministic, agent-indexed — the coupling demo uses a live field
// kernel instead; see exp.E10).
func abmConformBias(n int) []float64 {
	phi := make([]float64, n)
	for i := range phi {
		phi[i] = 0.05 * float64(i%11)
	}
	return phi
}

func conformKinds() []conformKind {
	grav := conformKind{
		name:  "gravity",
		kind:  KindGravity,
		setup: kernel.SetupGravityArgs{Kernel: "phigrape-cpu", Eps: 0.01},
		soloSpec: WorkerSpec{
			Resource: "das4-uva", Channel: ChannelIbis, Kernel: "phigrape-cpu"},
		gangSpec: WorkerSpec{
			Resource: "das4-vu", Channel: ChannelIbis, Kernel: "phigrape-cpu", Workers: 3},
		seed: func(t *testing.T, m *Model) {
			if err := m.AsGravity().SetParticles(ic.Plummer(96, 21)); err != nil {
				t.Fatal(err)
			}
		},
		leg: func(t *testing.T, m *Model, i int) {
			if err := m.AsGravity().EvolveTo(context.Background(), float64(i)/64); err != nil {
				t.Fatal(err)
			}
		},
		// 127 legs' worth of steps: at N=96 a gang step is a few pair
		// sweeps between collectives, so the leg's wall time (~270 ms, 18x
		// the fault suite's pre-kill sleep) is set by the number of
		// collectives, not by how fast the force kernel is. At 1/8 the
		// PR 15 kernel finished the leg before the kill landed.
		goLong: func(m *Model) Waiter { return m.AsGravity().GoEvolveTo(conformLongEnd) },
		digest: func(t *testing.T, m *Model) uint64 {
			st, err := m.GetState(nil, data.AttrPos, data.AttrVel)
			if err != nil {
				t.Fatal(err)
			}
			return kernel.DigestState(st)
		},
	}

	colony := conformKind{
		name:     "abm",
		kind:     Kind(abm.Kind),
		setup:    abm.SetupArgs{W: abmConformParams.W, H: abmConformParams.H, D: abmConformParams.D, R: abmConformParams.R, B: abmConformParams.B, DT: abmConformParams.DT},
		soloSpec: WorkerSpec{Resource: "das4-uva", Channel: ChannelIbis},
		gangSpec: WorkerSpec{Resource: "das4-vu", Channel: ChannelIbis, Workers: 3},
		seed: func(t *testing.T, m *Model) {
			p := abmConformParams
			st := kernel.NewState(p.W * p.H)
			st.AddFloat(abm.AttrState, abm.InitialU(p, 23))
			st.AddFloat(abm.AttrPotential, abmConformBias(p.W*p.H))
			if err := m.SetState(nil, st); err != nil {
				t.Fatal(err)
			}
		},
		leg: func(t *testing.T, m *Model, i int) {
			if err := m.Call(context.Background(), "step", abm.StepArgs{Steps: 40}, nil); err != nil {
				t.Fatal(err)
			}
		},
		goLong: func(m *Model) Waiter { return m.Go("step", abm.StepArgs{Steps: 1500}) },
		digest: func(t *testing.T, m *Model) uint64 {
			st, err := m.GetState(nil, abm.AttrState, abm.AttrPos)
			if err != nil {
				t.Fatal(err)
			}
			return kernel.DigestState(st)
		},
	}
	return []conformKind{grav, colony}
}

// TestKindConformanceSoloVsGang: for every conformant kind, a K=3 gang
// must reproduce a solo worker's trajectory bit for bit — domain
// decomposition is invisible in the results.
func TestKindConformanceSoloVsGang(t *testing.T) {
	for _, k := range conformKinds() {
		t.Run(k.name, func(t *testing.T) {
			_, sim := labSim(t)
			ctx := context.Background()

			solo, err := sim.NewModel(ctx, k.kind, k.soloSpec, k.setup)
			if err != nil {
				t.Fatal(err)
			}
			k.seed(t, solo)
			k.leg(t, solo, 1)
			k.leg(t, solo, 2)
			want := k.digest(t, solo)

			gang, err := sim.NewModel(ctx, k.kind, k.gangSpec, k.setup)
			if err != nil {
				t.Fatal(err)
			}
			if ids := gang.GangWorkers(); len(ids) != 3 {
				t.Fatalf("gang workers = %v, want 3 ranks", ids)
			}
			k.seed(t, gang)
			k.leg(t, gang, 1)
			k.leg(t, gang, 2)
			if got := k.digest(t, gang); got != want {
				t.Fatalf("gang digest %x != solo digest %x", got, want)
			}
		})
	}
}

// TestKindConformanceCheckpointRoundTrip: checkpoint after leg 1, keep
// the original running through leg 2 as the baseline, then resume the
// manifest from disk and run the same leg — the resumed trajectory must
// be bit-identical for every kind.
func TestKindConformanceCheckpointRoundTrip(t *testing.T) {
	for _, k := range conformKinds() {
		t.Run(k.name, func(t *testing.T) {
			tb, sim := labSim(t)
			ctx := context.Background()

			m, err := sim.NewModel(ctx, k.kind, k.soloSpec, k.setup)
			if err != nil {
				t.Fatal(err)
			}
			k.seed(t, m)
			k.leg(t, m, 1)

			man, err := sim.Checkpoint(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if len(man.Models) != 1 || man.Models[0].Kind != k.kind {
				t.Fatalf("manifest models = %+v", man.Models)
			}
			enc, err := man.Encode()
			if err != nil {
				t.Fatal(err)
			}
			loaded, err := DecodeManifest(enc)
			if err != nil {
				t.Fatal(err)
			}

			k.leg(t, m, 2)
			want := k.digest(t, m)
			if err := sim.Stop(); err != nil {
				t.Fatal(err)
			}

			sim2, models, err := ResumeSimulation(ctx, tb.Daemon, nil, loaded)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { sim2.Stop() })
			if len(models) != 1 || models[0].Kind() != k.kind {
				t.Fatalf("resumed models = %v", models)
			}
			k.leg(t, models[0], 2)
			if got := k.digest(t, models[0]); got != want {
				t.Fatalf("resumed digest %x != uninterrupted digest %x", got, want)
			}
		})
	}
}

// TestKindConformanceRankDeathRecovery kills rank 1 of a K=3 gang inside
// the long leg. With replacement enabled and a checkpoint taken, the rank
// must be transparently replaced and the end state must match a solo
// baseline bit for bit — then the recovered gang must survive another
// leg.
func TestKindConformanceRankDeathRecovery(t *testing.T) {
	for _, k := range conformKinds() {
		t.Run(k.name, func(t *testing.T) {
			tb, sim := labSim(t)
			ctx := context.Background()

			base, err := sim.NewModel(ctx, k.kind, k.soloSpec, k.setup)
			if err != nil {
				t.Fatal(err)
			}
			k.seed(t, base)
			k.leg(t, base, 1)
			if err := k.goLong(base).Wait(ctx); err != nil {
				t.Fatal(err)
			}
			want := k.digest(t, base)

			gang, err := sim.NewModel(ctx, k.kind, k.gangSpec, k.setup)
			if err != nil {
				t.Fatal(err)
			}
			k.seed(t, gang)
			k.leg(t, gang, 1)
			if _, err := sim.Checkpoint(ctx); err != nil {
				t.Fatal(err)
			}
			before := gang.GangWorkers()

			died := make(chan int, 4)
			tb.Daemon.OnWorkerDied = func(id int) { died <- id }
			call := k.goLong(gang)
			// Let the ranks get into the collective. Every kind's long leg
			// has to outlast this sleep by a wide margin on any host.
			time.Sleep(15 * time.Millisecond)
			victim := before[1]
			tb.Daemon.KillWorker(victim)
			select {
			case <-died:
			case <-time.After(10 * time.Second):
				t.Fatal("rank death not observed by the pool")
			}
			waitCtx, cancel := context.WithTimeout(ctx, 60*time.Second)
			defer cancel()
			if err := call.Wait(waitCtx); err != nil {
				t.Fatalf("long leg across rank death: %v", err)
			}
			after := gang.GangWorkers()
			if len(after) != 3 || after[1] == victim {
				t.Fatalf("rank 1 not replaced: workers %v -> %v", before, after)
			}
			if after[0] != before[0] || after[2] != before[2] {
				t.Fatalf("surviving ranks restarted unnecessarily: %v -> %v", before, after)
			}
			if got := k.digest(t, gang); got != want {
				t.Fatalf("post-recovery digest %x != solo baseline %x", got, want)
			}

			// The recovered gang keeps working bit-compatibly, on a leg
			// past the long leg's end time for monotonic-clock kinds.
			k.leg(t, base, conformPostLeg)
			k.leg(t, gang, conformPostLeg)
			if got, want := k.digest(t, gang), k.digest(t, base); got != want {
				t.Fatalf("post-recovery leg digest %x != baseline %x", got, want)
			}
		})
	}
}
