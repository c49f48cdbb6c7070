package core

import (
	"context"
	"errors"
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
// snapshot blobs themselves. ResumeSimulation inverts it: fresh workers,
// setup replayed, snapshots restored, clock advanced — the resumed run
// continues bit-compatibly with the one that checkpointed.
//
// Consistency comes from the per-worker FIFO: the snapshot request is an
// ordinary call, so it executes only after every call issued before it —
// the checkpoint drains each worker's in-flight pipeline and captures the
// state those calls left behind. Checkpoint is therefore safe to issue
// between bridge steps without any global barrier.
//
// The blob bytes travel the same two paths as bulk state: workers with a
// peer plane stream their snapshot directly to the daemon's checkpoint
// store (offer_checkpoint, never crossing the coupler's RPC plane), and
// everything else — or a direct path that fails mid-flight, classified
// exactly like TransferState — falls back to pulling the frame over the
// ordinary channel. Both paths count in TransferStats.

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
	// Blob is the daemon-store ref the snapshot was filed under.
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
	daddr, storeOK := s.daemon.CheckpointPeerAddr()

	type pending struct {
		m      *modelProxy
		c      *Call
		id     uint64
		seq    uint64 // seq of the call that produced the blob
		direct bool
		blob   []byte
	}
	// Every snapshot lands in the daemon's store: that host is the far end
	// of each model's transfer in the link-health table, however it got
	// there.
	store := s.daemon.Deployment().LocalHost()
	pends := make([]*pending, 0, len(models))
	for _, m := range models {
		p := &pending{m: m, id: s.daemon.ids.Add(1)}
		if _, ok := m.peerAddr(); ok && storeOK {
			// Peer path: the proxy snapshots and streams straight to the
			// daemon's store; the blob never rides the RPC plane.
			p.direct = true
			p.c = m.issue(s.clock.Now(), request{Method: kernel.MethodOfferCheckpoint, Args: kernel.Encode(kernel.OfferCheckpointArgs{
				ID: p.id, Peer: daddr.String()})}, callOpts{class: bound})
		} else {
			s.countTransfer(trace.LinkHairpin, m.peerHost(), store)
			p.c = m.goCheckpointPull(&p.blob, replayable)
		}
		p.seq = p.c.seq
		pends = append(pends, p)
	}
	// Wait for EVERY model before acting on any failure: a stream's blob
	// is deposited (and acked) before its offer call completes, so once
	// all calls have finished, all deposits this attempt will ever make
	// are in the store — a failed attempt can then be trimmed completely.
	var firstErr error
	for _, p := range pends {
		err := p.c.Wait(ctx)
		if p.direct {
			if err == nil {
				blob, ok := s.daemon.CheckpointBlob(p.id)
				if !ok {
					err = fmt.Errorf("%w: checkpoint %d acked but blob missing from store", ErrTransport, p.id)
				} else {
					s.countTransfer(trace.LinkDirect, p.m.peerHost(), store)
					p.blob = blob
				}
			}
			if err != nil && (isPeerPathErr(err) || errors.Is(err, ErrChannelClosed)) {
				// Same fallback contract as TransferState: the direct path
				// failed, the RPC plane carries the frame instead. A worker
				// torn down under the offer (death, migration, resize) falls
				// back too — the pull is replayable, so it parks and
				// completes against the rebuilt endpoint.
				s.countTransfer(trace.LinkFallback, p.m.peerHost(), store)
				c := p.m.goCheckpointPull(&p.blob, replayable)
				p.seq = c.seq
				err = c.Wait(ctx)
			}
		}
		if err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("core: checkpoint %s: %w", p.m.kind, err)
			}
		}
	}
	if firstErr != nil {
		// The attempt failed as a whole: trim whatever it deposited so
		// repeated failing checkpoints cannot grow the store.
		for _, p := range pends {
			s.daemon.DropCheckpoint(p.id)
		}
		return nil, firstErr
	}

	man := &Manifest{VTime: s.clock.Now()}
	for _, p := range pends {
		// The store holds every blob (hairpinned ones included) so a later
		// diagnostic can find it by ref; the blob it supersedes is trimmed
		// so a long checkpointing session holds one snapshot per model,
		// not one per checkpoint.
		s.daemon.StoreCheckpoint(p.id, p.blob)
		s.daemon.TagCheckpoint(p.id, s.Session())
		if rec := s.rec; rec != nil {
			rec.RecordCheckpoint(string(p.m.kind), len(p.blob))
		}
		if prev := p.m.cacheSnapshot(p.blob, p.id, p.seq); prev != 0 {
			s.daemon.DropCheckpoint(prev)
		}
		p.m.mu.Lock()
		mc := ModelCheckpoint{
			Kind: p.m.kind, Spec: p.m.spec, Setup: p.m.setup,
			Blob: p.id, Snapshot: p.blob,
		}
		p.m.mu.Unlock()
		man.Models = append(man.Models, mc)
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
			// The manifest's snapshot is the state to come up with: cached
			// (its frame was never filed in this daemon's store, hence ref
			// 0), it is what rebuild restores — and what a later death
			// replays.
			m.cacheSnapshot(mc.Snapshot, 0, 0)
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
