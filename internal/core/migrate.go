package core

import (
	"context"
	"errors"
	"fmt"
)

// Elastic gangs, parts 2 and 3: live worker migration and mid-run
// resize, the lifecycle's voluntary causes (lifecycle.go). Where a death
// says "a rank died", these say "we chose to move": claim the proxy, pull
// a fresh checkpoint through the call FIFO (draining the in-flight
// pipeline), tear the old endpoint down, bring a new one up — on a better
// resource (Migrate) or with a different rank count (Resize) — and rebuild
// bit-identical state from the snapshot. A refusal leaves the model
// running: a shape that does not fit its target is turned down before
// anything is touched, and one that fails to start after teardown gives
// way to the previous shape, restored from the snapshot just pulled. Only
// if that fails too is the endpoint left down — snapshot cached and
// covering the model, so its next call rebuilds it.

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
	return m.reshape(ctx, phaseMigrate, "migration", func(shape *WorkerSpec) error {
		if target == "" {
			t, err := selectLeastLoaded(m.sim.daemon.Deployment(), *shape, shape.Resource)
			if err != nil {
				return fmt.Errorf("no target resource: %w", err)
			}
			target = t
		}
		shape.Resource = target
		return nil
	})
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
	m.DisableRebalance()
	return m.reshape(ctx, phaseResize, "resize", func(shape *WorkerSpec) error {
		shape.Workers = workers
		return nil
	})
}

// reshape is Migrate and Resize: claim the proxy, let change turn the
// current spec into the wanted shape, rebuild into it from a fresh
// snapshot, and settle the calls that waited.
func (m *modelProxy) reshape(ctx context.Context, ph phase, cause string, change func(*WorkerSpec) error) error {
	ctx = m.sessionCtx(ctx)
	if err := m.begin(ctx, ph); err != nil {
		return fmt.Errorf("%w: %s: %w", ErrMigration, cause, err)
	}
	defer m.settle()
	m.mu.Lock()
	shape, ids := m.spec, m.workers
	m.mu.Unlock()
	if shape.Channel == ChannelMPI {
		return fmt.Errorf("%w: %s of an in-process mpi-channel model", ErrMigration, cause)
	}
	if err := change(&shape); err != nil {
		return fmt.Errorf("%w: %s: %w", ErrMigration, cause, err)
	}
	return m.rebuild(ctx, plan{cause: cause, retire: ids, shape: shape, pull: true})
}
