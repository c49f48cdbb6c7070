package core

import (
	"context"
	"errors"
	"fmt"

	"jungle/internal/core/kernel"
	"jungle/internal/trace"
)

// Elastic gangs, parts 2 and 3: live worker migration and mid-run
// resize. Both generalize PR 5's dead-rank machinery from "a rank died"
// to "we chose to move": pull a fresh checkpoint through the call FIFO
// (draining the in-flight pipeline), tear the old endpoint down, bring a
// new one up — on a better resource (Migrate) or with a different rank
// count (Resize) — and rebuild bit-identical state by replaying setup,
// restoring the snapshot on every rank under a fresh gang id, and
// overlaying any newer particle push. migMu serializes these rebuilds
// against the dead-worker drainer; a failure after teardown leaves the
// cached snapshot and the updated spec in place, so the very next call's
// retry flows into replaceGangRanks and the gang survives anyway.

// ErrMigration labels voluntary endpoint-rebuild failures. Callers can
// errors.Is against it (and against the wrapped cause, e.g.
// ErrWorkerDied for a rank killed mid-migration).
var ErrMigration = errors.New("core: migration failed")

// Migrate moves the model — the whole gang for gang models — to another
// resource while it runs. target names the destination; "" re-places via
// the least-loaded policy, excluding the current resource. The model
// keeps its handle, its state (bit-identical, via checkpoint/restore)
// and its session accounting; only the workers and their jobs move. nil
// ctx means the session context.
func (m *modelProxy) Migrate(ctx context.Context, target string) error {
	ctx = m.sessionCtx(ctx)
	m.migMu.Lock()
	defer m.migMu.Unlock()
	return m.rebuildEndpoint(ctx, "migration", target, 0)
}

// Resize changes a gang's rank count mid-run (grow or shrink K; 1 turns
// the model into a solo worker). Rank and size are baked into every
// worker's job and service construction, so a resize restarts the whole
// gang: all ranks stop, workers new-K start on the same resource,
// gang_init re-wires them under a fresh gang id, and every rank restores
// the pre-resize snapshot — which is exactly why the results stay
// bit-identical to a run that used the new K from the start. The
// rebalancer (if armed) is disarmed first: its cuts vectors are sized to
// the old K. nil ctx means the session context.
func (m *modelProxy) Resize(ctx context.Context, workers int) error {
	if workers < 1 {
		return fmt.Errorf("%w: resize to %d workers", ErrMigration, workers)
	}
	ctx = m.sessionCtx(ctx)
	m.migMu.Lock()
	defer m.migMu.Unlock()
	if m.elasticState() != nil {
		m.sim.trace("resize disarms the rebalancer (cuts are sized to the old K)")
		m.DisableRebalance()
	}
	return m.rebuildEndpoint(ctx, "resize", "", workers)
}

// rebuildEndpoint is the shared Migrate/Resize engine. Callers hold
// migMu. target "" keeps the current resource for resizes and re-places
// migrations; newK 0 keeps the current worker count.
func (m *modelProxy) rebuildEndpoint(ctx context.Context, reason, target string, newK int) error {
	// Calls racing the teardown below may fail on the closed old channel
	// instead of seeing the workers die; the rebuilding counter routes
	// them onto the retry queue (see endpointChanging).
	m.rebuilding.Add(1)
	defer m.rebuilding.Add(-1)
	m.mu.Lock()
	spec := m.spec
	stopped := m.stopped
	m.mu.Unlock()
	if stopped {
		return fmt.Errorf("%w: %s on a stopped model", ErrMigration, reason)
	}
	if spec.Channel == ChannelMPI {
		return fmt.Errorf("%w: %s of an in-process mpi-channel model", ErrMigration, reason)
	}
	origResource := spec.Resource
	if reason == "migration" && target == "" {
		t, err := selectLeastLoaded(m.sim.daemon.Deployment(), spec, origResource)
		if err != nil {
			return fmt.Errorf("%w: no target resource: %w", ErrMigration, err)
		}
		target = t
	}
	if target == "" {
		target = origResource
	}

	// 1. Fresh snapshot, pulled through the call FIFO: it completes only
	// after every in-flight pipelined call ahead of it, so the state it
	// captures is the state the caller observes. The endpoint is still
	// untouched here — a checkpoint failure aborts with the model intact.
	// mayReplace=false: we hold migMu, so a rank death here must fail the
	// pull (and this rebuild) rather than ride the retry drainer, which
	// blocks on migMu. The death itself still recovers through the next
	// call's retry once we return and release the lock.
	var blob []byte
	c := m.goCheckpointPullOpt(&blob, false)
	if err := c.Wait(ctx); err != nil {
		return fmt.Errorf("%w: %s checkpoint: %w", ErrMigration, reason, err)
	}
	m.mu.Lock()
	ref := m.lastBlobRef
	m.mu.Unlock()
	m.cacheSnapshot(blob, ref, c.seq)

	m.mu.Lock()
	oldIDs := append([]int(nil), m.gangWorkers...)
	if len(oldIDs) == 0 && m.worker != 0 {
		oldIDs = []int{m.worker}
	}
	oldCh := m.ch
	oldWorkers := len(oldIDs)
	setup := m.encodedSetupLocked()
	state := m.lastState
	stateSeq := m.stateSeq
	snapSeq := m.snapSeq
	spec.Resource = target
	if newK > 0 {
		spec.Workers = newK
	}
	m.spec = spec
	m.gangWorkers = nil
	m.mu.Unlock()

	// 2. Tear the old endpoint down. Calls racing this see the workers
	// dead (CodeWorkerDied → the retry queue, whose drainer blocks on
	// migMu and finds the generation bumped once we succeed) or a closed
	// channel (ErrTransport) in the narrow close window — the same
	// accepted race as dead-worker replacement.
	for _, id := range oldIDs {
		m.sim.daemon.StopWorker(id)
	}
	if oldCh != nil {
		oldCh.close()
	}

	// 3. Bring the new endpoint up, with a one-shot fallback to the
	// original resource if the target cannot start the workers.
	if err := m.start(ctx); err != nil {
		if target == origResource {
			return fmt.Errorf("%w: %s start on %s: %w", ErrMigration, reason, target, err)
		}
		m.sim.trace("%s: start on %s failed (%v); falling back to %s", reason, target, err, origResource)
		m.mu.Lock()
		m.spec.Resource = origResource
		m.mu.Unlock()
		if err2 := m.start(ctx); err2 != nil {
			return fmt.Errorf("%w: %s start on %s (%v) and fallback %s: %w",
				ErrMigration, reason, target, err, origResource, err2)
		}
		target = origResource
	}

	// 4. Rebuild bit-identical state: setup, restore the snapshot (a
	// broadcast for gangs — every rank loads it), overlay a newer
	// particle push if one landed after the snapshot. A failure here
	// (e.g. a rank killed mid-migration) returns a structured error
	// WITHOUT bumping the generation: the snapshot is cached and the
	// spec already names the new resource, so the next call's retry
	// drains into replaceGangRanks and recovers the gang there.
	if err := m.replay("setup", setup); err != nil {
		return fmt.Errorf("%w: %s setup replay on %s: %w", ErrMigration, reason, target, err)
	}
	if err := m.replayRestore(blob); err != nil {
		return fmt.Errorf("%w: %s restore on %s: %w", ErrMigration, reason, target, err)
	}
	if state != nil && stateSeq > snapSeq {
		if err := m.replay("set_particles", kernel.Encode(*state)); err != nil {
			return fmt.Errorf("%w: %s state overlay on %s: %w", ErrMigration, reason, target, err)
		}
	}
	if err := m.finishReplacement(); err != nil {
		return err
	}

	newWorkers := len(m.WorkerIDs())
	if newWorkers == 0 {
		newWorkers = 1
	}
	if delta := newWorkers - oldWorkers; delta != 0 {
		m.sim.sessionAccount(func(rec *trace.Recorder, id string) {
			rec.SessionWorkerDelta(id, delta)
		})
	}
	m.sim.trace("%s complete: kind=%s %s → %s workers=%d", reason, m.kind, origResource, target, newWorkers)
	return nil
}

// resourceContended implements the rebalancer's migrate trigger: the
// capacity ledger says other sessions occupy too much of the resource,
// or (optionally) the latest goodput probe from the coupler's host to
// the resource frontend fell below the policy floor.
func (s *Simulation) resourceContended(resource string, p ElasticPolicy) bool {
	d := s.daemon.Deployment()
	r, err := d.Resource(resource)
	if err != nil {
		return false
	}
	others := d.OccupiedNodesByOthers(resource, s.Session())
	if float64(others) >= p.contentionFraction()*float64(r.NodeCount()) {
		return true
	}
	if p.MinGoodput > 0 && s.Monitor != nil {
		if g, ok := s.Monitor.Goodput(d.LocalHost(), r.Frontend); ok && g.BytesPerSec < p.MinGoodput {
			return true
		}
	}
	return false
}
