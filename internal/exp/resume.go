package exp

import (
	"bytes"
	"context"
	"encoding/gob"
	"fmt"
	"os"

	"jungle/internal/core"
	"jungle/internal/deploy"
	"jungle/internal/phys/bridge"
)

// Resumable scenario runs. RunScenarioCheckpointed behaves like
// RunScenario but checkpoints the whole session after every completed
// bridge iteration: the coupler snapshots all four workers
// (Simulation.Checkpoint) and writes a self-contained run file — the
// core manifest plus the bridge's own clock and the run plan. A killed
// run restarts with ResumeScenario, which rebuilds the workers from the
// manifest, restores their snapshots, rewinds the bridge bookkeeping and
// completes the remaining iterations bit-compatibly — the resumed
// trajectory (supernovae included) is the one the uninterrupted run
// would have produced.

// RunCheckpoint is the on-disk record of a checkpointed scenario run.
type RunCheckpoint struct {
	// Scenario is the placement name (for reporting; the worker specs
	// live in the core manifest).
	Scenario string
	// W is the workload (kept so a resume can rebuild the bridge's
	// coupling parameters; initial conditions are NOT regenerated — state
	// comes from the snapshots).
	W Workload
	// Iterations is the total the run was asked for; Done counts the
	// completed ones.
	Iterations int
	Done       int
	// Bridge bookkeeping at the checkpoint.
	BridgeTime  float64
	BridgeSteps int
	Supernovae  int
	// Core is the coupler-level manifest: specs, setup payloads and
	// snapshot blobs for all four workers.
	Core *core.Manifest
}

// checkpoint snapshots the live run into an encoded RunCheckpoint: the core
// manifest plus the bridge bookkeeping a resume must rewind. A session
// snapshot is these bytes as they are, a run file the same bytes through
// deploy.WriteFileAtomic; decodeRunCheckpoint inverts it.
func (sb *scenarioBridge) checkpoint(ctx context.Context, scenario string, w Workload, iterations, done int) ([]byte, error) {
	man, err := sb.sim.Checkpoint(ctx)
	if err != nil {
		return nil, fmt.Errorf("exp: checkpoint %s after iteration %d: %w", scenario, done, err)
	}
	var buf bytes.Buffer
	err = gob.NewEncoder(&buf).Encode(&RunCheckpoint{
		Scenario: scenario, W: w, Iterations: iterations, Done: done,
		BridgeTime: sb.bridge.Time(), BridgeSteps: sb.bridge.Steps(),
		Supernovae: sb.bridge.Supernovae(), Core: man,
	})
	if err != nil {
		return nil, fmt.Errorf("exp: encode run checkpoint: %w", err)
	}
	return buf.Bytes(), nil
}

func decodeRunCheckpoint(b []byte) (*RunCheckpoint, error) {
	rc := new(RunCheckpoint)
	if err := gob.NewDecoder(bytes.NewReader(b)).Decode(rc); err != nil {
		return nil, fmt.Errorf("exp: decode run checkpoint: %w", err)
	}
	return rc, nil
}

// RunScenarioCheckpointed runs the workload like RunScenario and writes a
// run checkpoint to path after every completed iteration, so the run can
// be killed at any point and resumed with ResumeScenario.
func RunScenarioCheckpointed(ctx context.Context, tb *core.Testbed, w Workload, p Placement, iterations int, path string) (RunResult, error) {
	sb, err := startScenario(ctx, tb, w, p)
	if err != nil {
		return RunResult{}, err
	}
	defer sb.sim.Stop()
	setup := sb.sim.Elapsed()
	if err := runCheckpointedLoop(ctx, sb, p.Name, w, iterations, 0, path); err != nil {
		return RunResult{}, err
	}
	return sb.result(p.Name, iterations, setup)
}

// runCheckpointedLoop executes bridge iterations done..iterations,
// checkpointing after each.
func runCheckpointedLoop(ctx context.Context, sb *scenarioBridge, scenario string, w Workload, iterations, done int, path string) error {
	for i := done; i < iterations; i++ {
		if err := sb.bridge.Step(ctx); err != nil {
			return fmt.Errorf("scenario %s iteration %d: %w", scenario, i, err)
		}
		b, err := sb.checkpoint(ctx, scenario, w, iterations, i+1)
		if err != nil {
			return err
		}
		if err := deploy.WriteFileAtomic(path, b); err != nil {
			return err
		}
	}
	return nil
}

// rebindScenario rebuilds the bridge over models resumed from a run
// checkpoint's manifest: typed handles are recovered by kind, the bridge
// is reassembled with the saved workload's coupling parameters, and its
// clock is rewound to the checkpoint.
func rebindScenario(rc *RunCheckpoint, sim *core.Simulation, models []*core.Model) (*scenarioBridge, error) {
	var g *core.Gravity
	var h *core.Hydro
	var f *core.FieldModel
	var st *core.StellarModel
	for _, m := range models {
		switch m.Kind() {
		case core.KindGravity:
			g = m.AsGravity()
		case core.KindHydro:
			h = m.AsHydro()
		case core.KindField:
			f = m.AsField()
		case core.KindStellar:
			st = m.AsStellar()
		}
	}
	if g == nil || h == nil || f == nil || st == nil {
		return nil, fmt.Errorf("exp: manifest for %s is missing models (got %d)", rc.Scenario, len(models))
	}
	br, err := bridge.New(bridgeConfig(rc.W, g, h, f, st))
	if err != nil {
		return nil, err
	}
	br.RestoreClock(rc.BridgeTime, rc.BridgeSteps, rc.Supernovae)
	return &scenarioBridge{sim: sim, bridge: br, grav: g}, nil
}

// ResumeScenario continues a killed checkpointed run from its run file:
// workers are rebuilt from the manifest (setup replayed, snapshots
// restored), the bridge bookkeeping is rewound, and the remaining
// iterations execute — still checkpointing to the same path. The daemon
// must serve the same deployment the run was checkpointed on (resource
// names resolve against it).
func ResumeScenario(ctx context.Context, tb *core.Testbed, path string) (RunResult, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return RunResult{}, err
	}
	rc, err := decodeRunCheckpoint(b)
	if err != nil {
		return RunResult{}, fmt.Errorf("%s: %w", path, err)
	}
	if rc.Done >= rc.Iterations {
		return RunResult{}, fmt.Errorf("exp: run %s already complete (%d/%d iterations)", rc.Scenario, rc.Done, rc.Iterations)
	}
	sim, models, err := core.ResumeSimulation(ctx, tb.Daemon, nil, rc.Core)
	if err != nil {
		return RunResult{}, fmt.Errorf("exp: resume %s: %w", rc.Scenario, err)
	}
	defer sim.Stop()
	sb, err := rebindScenario(rc, sim, models)
	if err != nil {
		return RunResult{}, err
	}

	setup := sim.Elapsed()
	if err := runCheckpointedLoop(ctx, sb, rc.Scenario, rc.W, rc.Iterations, rc.Done, path); err != nil {
		return RunResult{}, err
	}
	return sb.result(rc.Scenario+" (resumed)", rc.Iterations-rc.Done, setup)
}
