package core

import (
	"context"
	"fmt"
	"time"

	"jungle/internal/amuse/units"
	"jungle/internal/core/kernel"
	"jungle/internal/trace"
)

// Coupler-side checkpoint/restore. Simulation.Checkpoint snapshots every
// model at a consistent point and returns a Manifest — everything needed
// to rebuild the session: per-model kinds, worker specs (including gang
// shapes), encoded setup args, the coupler's virtual clock, and the
// snapshot frames themselves. ResumeSimulation inverts it: fresh workers,
// setup replayed, snapshots restored, clock advanced — the resumed run
// continues bit-compatibly with the one that checkpointed.
//
// Consistency comes from the per-worker FIFO: the snapshot request is an
// ordinary call, so it executes only after every call issued before it —
// the checkpoint drains each worker's in-flight pipeline and captures the
// state those calls left behind. Checkpoint is therefore safe to issue
// between bridge steps without any global barrier.
//
// A snapshot reaches the coupler one way: as the checkpoint call's reply,
// counted as a hairpin in TransferStats. The daemon relays every worker's
// RPC (§5), so a snapshot bound for it crosses the same worker→daemon link
// whatever carries it; a peer stream would only add a dial and an ack.

// ModelCheckpoint is one model's entry in a Manifest.
type ModelCheckpoint struct {
	// Kind is the worker kind (a registered kernel registry name).
	Kind Kind
	// Spec is the worker spec the model was started with — resource,
	// channel, node count and gang shape (Workers).
	Spec WorkerSpec
	// Setup is the encoded setup-args payload, replayed verbatim on
	// resume before the snapshot is restored.
	Setup []byte
	// Blob is always 0: the snapshot is inlined below and filed nowhere
	// else. The field keeps its place because a persisted struct only
	// grows at its end.
	Blob uint64
	// Snapshot is the snapshot frame itself (kernel.Snapshot codec),
	// inlined so a saved manifest is self-contained.
	Snapshot []byte
}

// Manifest is a complete, self-contained simulation checkpoint.
type Manifest struct {
	// VTime is the coupler's virtual clock when the checkpoint completed.
	VTime time.Duration
	// Models lists every live model in creation order.
	Models []ModelCheckpoint
}

// Checkpoint snapshots every model of the simulation and returns the
// manifest. The snapshot calls fan out asynchronously (all on the wire
// before any is waited on, like every other multi-model phase); each
// rides its worker's FIFO, so in-flight pipelines drain first. For a gang
// the snapshot comes from rank 0 — ranks hold bitwise-identical
// replicated state. nil ctx means the session context.
func (s *Simulation) Checkpoint(ctx context.Context) (*Manifest, error) {
	if ctx == nil {
		ctx = s.ctx
	}
	s.mu.Lock()
	models := append([]*modelProxy(nil), s.models...)
	s.mu.Unlock()

	// The coupler stands on the daemon's host: that host is the far end of
	// each snapshot's transfer in the link-health table.
	coupler := s.daemon.Deployment().LocalHost()
	blobs := make([][]byte, len(models))
	calls := make([]*Call, len(models))
	for i, m := range models {
		s.countTransfer(trace.LinkHairpin, m.peerHost(), coupler)
		calls[i] = m.goCheckpointPull(&blobs[i], replayable)
	}
	for i, c := range calls {
		if err := c.Wait(ctx); err != nil {
			return nil, fmt.Errorf("core: checkpoint %s: %w", models[i].kind, err)
		}
	}

	man := &Manifest{VTime: s.clock.Now()}
	for i, m := range models {
		if rec := s.rec; rec != nil {
			rec.RecordCheckpoint(string(m.kind), len(blobs[i]))
		}
		m.cacheSnapshot(blobs[i], calls[i].seq)
		m.mu.Lock()
		man.Models = append(man.Models, ModelCheckpoint{Kind: m.kind, Spec: m.spec, Setup: m.setup, Snapshot: blobs[i]})
		m.mu.Unlock()
	}
	return man, nil
}

// goCheckpointPull issues the snapshot call over the RPC plane and copies
// the raw frame out when the result is observed.
func (m *modelProxy) goCheckpointPull(out *[]byte, class callClass) *Call {
	return m.issue(m.sim.clock.Now(), request{Method: kernel.MethodCheckpoint}, callOpts{class: class, after: func(c *Call) error {
		*out = append([]byte(nil), c.result...)
		return nil
	}})
}

// ResumeSimulation rebuilds a session from a manifest: for every recorded
// model it starts a fresh worker (or gang) per the saved spec, replays
// the saved setup, restores the snapshot, and advances the coupler's
// clock to the manifest's. session binds the resumed simulation to a
// control-plane session (SetSession; "" for a standalone run), so every
// restarted worker is stamped with it. The returned models are in
// manifest order; wrap them with AsGravity/AsHydro/AsStellar/AsField to
// recover typed handles. On any failure the partially resumed session is
// stopped.
func ResumeSimulation(ctx context.Context, d *Daemon, conv *units.Converter, man *Manifest, session string) (*Simulation, []*Model, error) {
	sim := NewSimulation(ctx, d, conv)
	sim.SetSession(session)
	sim.clock.AdvanceTo(man.VTime)
	models := make([]*Model, 0, len(man.Models))
	fail := func(err error) (*Simulation, []*Model, error) {
		sim.Stop()
		return nil, nil, err
	}
	for i, mc := range man.Models {
		if !kernel.Registered(string(mc.Kind)) {
			return fail(fmt.Errorf("%w: %q (missing adapter import? see internal/kernels)", ErrBadKind, mc.Kind))
		}
		// Restarted workers belong to the resuming session, whatever session
		// (if any) saved the manifest.
		mc.Spec.Session = session
		m := &modelProxy{sim: sim, kind: mc.Kind, setup: mc.Setup}
		if len(mc.Snapshot) > 0 {
			// The manifest's snapshot is the state to come up with: cached,
			// it is what rebuild restores — and what a later death replays.
			m.cacheSnapshot(mc.Snapshot, 0)
			if snap, err := kernel.UnmarshalSnapshot(mc.Snapshot); err == nil && snap.State != nil {
				m.n = snap.State.N
			}
		}
		if err := m.rebuild(ctx, plan{cause: "resume", shape: mc.Spec}); err != nil {
			m.shutdown()
			return fail(fmt.Errorf("core: resume model %d: %w", i, err))
		}
		sim.mu.Lock()
		sim.models = append(sim.models, m)
		sim.mu.Unlock()
		models = append(models, &Model{modelProxy: m})
	}
	return sim, models, nil
}

// Kind returns the model's worker kind.
func (m *Model) Kind() Kind { return m.kind }

// AsGravity adapts a resumed generic model to the typed Gravity handle.
// Valid only for KindGravity models.
func (m *Model) AsGravity() *Gravity { return &Gravity{modelProxy: m.modelProxy} }

// AsHydro adapts a resumed generic model to the typed Hydro handle.
func (m *Model) AsHydro() *Hydro { return &Hydro{modelProxy: m.modelProxy} }

// AsStellar adapts a resumed generic model to the typed StellarModel
// handle.
func (m *Model) AsStellar() *StellarModel { return &StellarModel{modelProxy: m.modelProxy} }

// AsField adapts a resumed generic model to the typed FieldModel handle
// (the kernel name comes from the saved spec).
func (m *Model) AsField() *FieldModel {
	m.mu.Lock()
	name := m.spec.Kernel
	m.mu.Unlock()
	return &FieldModel{modelProxy: m.modelProxy, kernelName: name}
}
