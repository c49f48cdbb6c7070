package core

import (
	"bytes"
	"context"
	"runtime"
	"testing"
	"time"

	"jungle/internal/amuse/data"
	"jungle/internal/amuse/ic"
	"jungle/internal/core/kernel"
	"jungle/internal/deploy"
	"jungle/internal/phys/abm"
	"jungle/internal/phys/analytic"
	"jungle/internal/vtime"
)

// TestLeakWorkerStartStop: a stopped ibis worker leaves nothing behind on
// the daemon — no handle in the worker table, no response port, no
// reader goroutine parked on a connection nobody will close. (Each stop
// used to leak one of each; 16 000 sessions left 16 081 goroutines in
// ipl.(*ReceivePort).attach.)
func TestLeakWorkerStartStop(t *testing.T) {
	tb, _ := dslSim(t)
	d := tb.Daemon
	cycle := func() {
		t.Helper()
		id, err := d.StartWorker(context.Background(),
			WorkerSpec{Kind: KindGravity, Resource: "site-a", Channel: ChannelIbis})
		if err != nil {
			t.Fatal(err)
		}
		job := d.WorkerJob(id)
		d.StopWorker(id)
		select {
		case <-job.Done():
		case <-time.After(10 * time.Second):
			t.Fatalf("worker %d did not stop", id)
		}
	}
	tables := func() (workers, members int) {
		d.mu.Lock()
		defer d.mu.Unlock()
		return len(d.workers), len(d.byMember)
	}
	// settled polls until the goroutine count is back at or below want:
	// the far ends of closed connections wind down asynchronously.
	settled := func(want int) int {
		deadline := time.Now().Add(10 * time.Second)
		for runtime.NumGoroutine() > want && time.Now().Before(deadline) {
			time.Sleep(5 * time.Millisecond)
		}
		return runtime.NumGoroutine()
	}
	for i := 0; i < 5; i++ {
		cycle()
	}
	base := -1 // two equal readings: the warm-up has wound down
	for n := runtime.NumGoroutine(); n != base; n = runtime.NumGoroutine() {
		base = n
		time.Sleep(50 * time.Millisecond)
	}
	w0, m0 := tables()
	for i := 0; i < 200; i++ {
		cycle()
	}
	if got := settled(base); got > base {
		buf := make([]byte, 1<<20)
		t.Fatalf("200 start/stop cycles grew the goroutine count from %d to %d:\n%s",
			base, got, buf[:runtime.Stack(buf, true)])
	}
	if w, m := tables(); w != w0 || m != m0 {
		t.Fatalf("after 200 cycles the daemon holds %d workers and %d members; started at %d and %d", w, m, w0, m0)
	}
}

// TestBulkRoundAllocGate: moving state is a chain of hand-overs, not of
// copies. One TransferState (worker to worker) plus the columns back
// through the coupler (GetState, SetState) allocated 16.8 x the payload
// while every vnet send copied its message and frames were built in pooled
// buffers, 12.3 x — eleven whole copies — with one owner per message but a
// codec that marshalled into a slice and copied that behind each header, and
// 5.8 x — five frames — encoded once into the frame that leaves and decoded
// once into the columns that keep it (the frames carry a 64 B/particle state
// with its key column). Four of those frames are now taken from the free
// list and handed back by their last reader (DESIGN.md § Buffer ownership,
// "Bulk frames are recycled"): the get_state reply that becomes the transfer
// frame, accept's loopback apply request, the hairpin get_state reply and
// the set_state request. What is left is the one copy the caller keeps,
// GetState's decoded columns, about 1.2–1.4 x; a Pull into a set the caller
// already has adds nothing to it. A release point that stops handing its
// frame back costs a whole frame a round, 1.14 x, and fails the gate.
func TestBulkRoundAllocGate(t *testing.T) {
	_, sim := dslSim(t)
	const n = 10_000
	src, dst := transferPair(t, sim, ic.Plummer(n, 7))
	attrs := []string{data.AttrMass, data.AttrPos, data.AttrVel}
	pulled := data.NewParticles(n)
	round := func() {
		t.Helper()
		ctx := context.Background()
		if err := sim.TransferState(ctx, src, dst, attrs...); err != nil {
			t.Fatal(err)
		}
		st, err := dst.GetState(ctx, attrs...)
		if err != nil {
			t.Fatal(err)
		}
		if err := src.SetState(ctx, st); err != nil {
			t.Fatal(err)
		}
		if err := dst.GoPull(pulled, attrs...).Wait(ctx); err != nil {
			t.Fatal(err)
		}
	}
	round()
	round()
	const rounds = 5
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < rounds; i++ {
		round()
	}
	runtime.ReadMemStats(&after)
	payload := float64(n * (8 + 24 + 24))
	ratio := float64(after.TotalAlloc-before.TotalAlloc) / rounds / payload
	t.Logf("one bulk round allocates %.2f x its payload", ratio)
	if ratio > 2 && !raceEnabled {
		t.Errorf("one bulk round allocates %.2f x its %d-byte payload, gate 2 x", ratio, int(payload))
	}
	if ts := sim.TransferStats(); ts.Direct != rounds+2 || ts.Fallback != 0 {
		t.Fatalf("transfer stats %+v: the rounds did not all go worker to worker", ts)
	}
}

// TestOwnershipPoisonedFrames re-runs the tests that move state frames with
// every released frame overwritten (kernel.PoisonReleased) before it can be
// taken again: a reader that kept a frame past its release — a service
// holding a view into its args, a coupler reading a reply it handed back, a
// proxy streaming a frame another reader released — reads 0xA5 and fails a
// digest.
func TestOwnershipPoisonedFrames(t *testing.T) {
	kernel.PoisonReleased(true)
	t.Cleanup(func() { kernel.PoisonReleased(false) })
	for _, tc := range []struct {
		name string
		run  func(*testing.T)
	}{
		{"BulkRoundDigests", bulkRoundDigests},
		{"TransferStateDirect", TestTransferStateDirect},
		{"TransferFaultFallsBackToHairpin", TestTransferFaultFallsBackToHairpin},
		{"BridgeStepCompletesUnderTransferFault", TestBridgeStepCompletesUnderTransferFault},
		{"KindConformanceSoloVsGang", TestKindConformanceSoloVsGang},
		{"KindConformanceCheckpointRoundTrip", TestKindConformanceCheckpointRoundTrip},
		{"KindConformanceRankDeathRecovery", TestKindConformanceRankDeathRecovery},
		{"CheckpointResumeSimulation", TestCheckpointResumeSimulation},
		{"CheckpointHairpinAndFallback", TestCheckpointHairpinAndFallback},
		{"SoloRestoreUnderFault", TestSoloRestoreUnderFault},
		{"GangRankRestoreUnderFault", TestGangRankRestoreUnderFault},
	} {
		t.Run(tc.name, tc.run)
	}
}

// bulkRoundDigests goes round bulk_state's op with frames the free list
// keeps — worker to worker, back through the coupler — and pulls and syncs
// the columns into particle sets besides: every copy must digest as the
// columns it started from, round after round.
func bulkRoundDigests(t *testing.T) {
	_, sim := dslSim(t)
	const n = 2_000 // 128 KB frames
	stars := ic.Plummer(n, 7)
	src, dst := transferPair(t, sim, stars)
	attrs := []string{data.AttrMass, data.AttrPos, data.AttrVel}
	digest := func(st *kernel.StatePayload) uint64 {
		st.Key = nil
		return kernel.DigestState(st)
	}
	gathered := func(p *data.Particles) uint64 {
		t.Helper()
		st, err := kernel.GatherState(p, attrs...)
		if err != nil {
			t.Fatal(err)
		}
		return digest(st)
	}
	want := gathered(stars)
	pulled, synced := data.NewParticles(n), data.NewParticles(n)
	// A request frame garbled in flight is dropped by the daemon, so its call
	// would never answer.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for r := 0; r < 8; r++ {
		if err := sim.TransferState(ctx, src, dst, attrs...); err != nil {
			t.Fatal(err)
		}
		st, err := dst.GetState(ctx, attrs...)
		if err != nil {
			t.Fatal(err)
		}
		if got := digest(st); got != want {
			t.Fatalf("round %d: GetState after the transfer digests %016x, want %016x", r, got, want)
		}
		if err := src.SetState(ctx, st); err != nil {
			t.Fatal(err)
		}
		if err := dst.GoPull(pulled, attrs...).Wait(ctx); err != nil {
			t.Fatal(err)
		}
		if err := src.Sync(ctx, synced); err != nil {
			t.Fatal(err)
		}
		if p, s := gathered(pulled), gathered(synced); p != want || s != want {
			t.Fatalf("round %d: pulled %016x, synced %016x, want %016x", r, p, s, want)
		}
	}
	if ts := sim.TransferStats(); ts.Direct != 8 || ts.Fallback != 0 {
		t.Fatalf("transfer stats %+v: the rounds did not all go worker to worker", ts)
	}
}

// TestOwnershipDispatchKeepsNoArgs: a service does not keep its args once
// Dispatch returns (kernel.Service) — a state frame goes back to the free
// list then, and the next one encoded overwrites it. For every kind, each
// call that hands the service state is dispatched on one service with its
// args scribbled over the moment Dispatch returns, and on a twin with its
// args left alone; every read the kind serves — checkpoint first, its Extra
// included — must then answer both alike. A restore of the twin's snapshot
// is held to the same rule.
func TestOwnershipDispatchKeepsNoArgs(t *testing.T) {
	res := &deploy.Resource{Name: "test", Frontend: "test",
		CPU: &vtime.Device{Name: "cpu", Kind: vtime.CPU, Gflops: 1, Cores: 4}}
	const n = 48
	stars := ic.Plummer(n, 3)
	gas := stars.Clone()
	for i := range gas.InternalEnergy {
		gas.InternalEnergy[i], gas.SmoothingLen[i] = 1, 0.1
	}
	mass, vel, u := make([]float64, n), make([]data.Vec3, n), make([]float64, n)
	for i := range mass {
		mass[i], vel[i], u[i] = 2*stars.Mass[i], data.Vec3{float64(i), -1, 0.5}, 1+float64(i)
	}
	colony := abm.Params{W: 8, H: 6, D: 0.2, R: 0.8, B: 0.4, DT: 0.01}
	type call struct {
		method string
		args   []byte
	}
	state := func(method string, slot uint64, st *kernel.StatePayload) call {
		frame, err := kernel.MarshalState(st)
		if err != nil {
			t.Fatal(err)
		}
		return call{method, kernel.NewApplyRequest(method, slot, frame).Args}
	}
	read := func(attrs ...string) call {
		return call{"get_state", kernel.AppendStateRequest(nil, &kernel.StateRequest{Attrs: attrs})}
	}
	for _, k := range []struct {
		kind          Kind
		writes, reads []call
	}{
		{KindGravity, []call{
			{"setup", kernel.Encode(kernel.SetupGravityArgs{Kernel: "phigrape-cpu", Eps: 0.01})},
			{"set_particles", kernel.Encode(kernel.ParticlesToPayload(stars))},
			state("set_state", 0, kernel.NewState(n).AddFloat(data.AttrMass, mass).AddVec(data.AttrVel, vel)),
		}, []call{read(data.AttrMass, data.AttrPos, data.AttrVel)}},
		{KindHydro, []call{
			{"setup", kernel.Encode(kernel.SetupHydroArgs{})},
			{"set_particles", kernel.Encode(kernel.ParticlesToPayload(gas))},
			state("set_state", 0, kernel.NewState(n).AddFloat(data.AttrMass, mass).AddFloat(data.AttrInternalEnergy, u)),
		}, []call{read(data.AttrMass, data.AttrPos, data.AttrVel, data.AttrInternalEnergy, data.AttrSmoothingLen)}},
		{Kind(abm.Kind), []call{
			{"setup", kernel.Encode(abm.SetupArgs{W: colony.W, H: colony.H, D: colony.D, R: colony.R, B: colony.B, DT: colony.DT})},
			state("set_state", 0, kernel.NewState(n).AddFloat(abm.AttrState, abm.InitialU(colony, 5)).AddFloat(abm.AttrPotential, u)),
		}, []call{read(abm.AttrState, abm.AttrPotential, abm.AttrPos)}},
		{KindField, []call{
			{"setup", kernel.Encode(kernel.SetupFieldArgs{Kernel: "fi", Eps: 0.05})},
			state("stage_sources", 1, kernel.NewState(n).AddFloat(data.AttrMass, stars.Mass).AddVec(data.AttrPos, stars.Pos)),
			state("stage_targets", 1, kernel.NewState(n).AddVec(data.AttrPos, vel)),
		}, []call{{"field_staged", kernel.Encode(kernel.FieldStagedArgs{Slot: 1})}}},
		{KindStellar, []call{
			{"setup", kernel.Encode(kernel.SetupStellarArgs{MassesMSun: []float64{25, 1, 0.5}, MyrPerTime: 10, NBodyPerMSun: 0.001})},
			{"evolve", kernel.Encode(kernel.EvolveArgs{T: 1})},
		}, []call{read(data.AttrMass, data.AttrRadius, data.AttrStellarType)}},
		{Kind(analytic.Kind), []call{
			{"setup", kernel.Encode(analytic.SetupArgs{M: 1, A: 0.5})},
		}, []call{{"field_at", kernel.Encode(kernel.FieldAtArgs{Targets: stars.Pos})}}},
	} {
		t.Run(string(k.kind), func(t *testing.T) {
			start := func() service {
				t.Helper()
				svc, err := newService(k.kind, res, nil, nil, nil)
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(svc.Close)
				return svc
			}
			scribbled, twin := start(), start()
			dispatch := func(svc service, c call) []byte {
				t.Helper()
				out, _, err := svc.Dispatch(c.method, c.args, 0)
				if err != nil {
					t.Fatalf("%s: %v", c.method, err)
				}
				return out.Bytes()
			}
			write := func(c call) {
				t.Helper()
				dispatch(twin, c)
				args := bytes.Clone(c.args)
				dispatch(scribbled, call{c.method, args})
				for i := range args {
					args[i] = 0x5A
				}
			}
			agree := func(when string) {
				t.Helper()
				for _, c := range append([]call{{kernel.MethodCheckpoint, nil}}, k.reads...) {
					if got, want := dispatch(scribbled, c), dispatch(twin, c); !bytes.Equal(got, want) {
						t.Errorf("%s: %s answers otherwise once the args it was handed are overwritten", when, c.method)
					}
				}
			}
			for _, c := range k.writes {
				write(c)
			}
			snap := bytes.Clone(dispatch(twin, call{kernel.MethodCheckpoint, nil}))
			agree("after the writes")
			write(call{kernel.MethodRestore, snap})
			agree("after a restore")
		})
	}
}
