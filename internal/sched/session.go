package sched

import (
	"context"
	"sync"
	"time"

	"jungle/internal/amuse/units"
	"jungle/internal/core"
	"jungle/internal/core/kernel"
)

// State is a session's control-plane lifecycle state.
type State string

// Session lifecycle states.
const (
	StateQueued    State = "queued"    // waiting for admission
	StateRunning   State = "running"   // admitted, lease live
	StatePreempted State = "preempted" // evicted; snapshot held for resume
	StateClosed    State = "closed"    // ended; id retired
)

// Session is one tenant's handle on the control plane. Run handlers use
// it to create or resume the session-bound simulation; the scheduler uses
// it to track the lease and to evict.
type Session struct {
	id string
	s  *Scheduler

	mu       sync.Mutex
	state    State
	lastBeat time.Time
	// sim is the live session-bound coupler (nil when preempted/closed).
	sim *core.Simulation
	// snapshot is the opaque eviction record a resume starts from.
	snapshot []byte
	// evictor, installed by the run handler while work is live, produces
	// the snapshot at eviction (nil falls back to the generic
	// whole-simulation manifest).
	evictor func(ctx context.Context) ([]byte, error)
}

func newSession(s *Scheduler, id string) *Session {
	return &Session{id: id, s: s, state: StateQueued}
}

// ID returns the session id.
func (ss *Session) ID() string { return ss.id }

// State returns the lifecycle state.
func (ss *Session) State() State { return ss.getState() }

func (ss *Session) getState() State {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	return ss.state
}

func (ss *Session) setState(st State) {
	ss.mu.Lock()
	ss.state = st
	ss.mu.Unlock()
	if rec := ss.s.cfg.Recorder; rec != nil {
		rec.SessionState(ss.id, string(st))
	}
}

func (ss *Session) touch(now time.Time) {
	ss.mu.Lock()
	ss.lastBeat = now
	ss.mu.Unlock()
}

func (ss *Session) beat() time.Time {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	return ss.lastBeat
}

func (ss *Session) hasSnapshot() bool {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	return len(ss.snapshot) > 0
}

// Snapshot returns the eviction record a preempted session should resume
// from (nil when the session starts fresh).
func (ss *Session) Snapshot() []byte {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	return ss.snapshot
}

// SetEvictor installs the function the scheduler calls to checkpoint the
// session's live work at eviction. Run handlers with state beyond the
// core manifest (e.g. a bridge clock) install one; nil restores the
// generic whole-simulation manifest.
func (ss *Session) SetEvictor(f func(ctx context.Context) ([]byte, error)) {
	ss.mu.Lock()
	ss.evictor = f
	ss.mu.Unlock()
}

// NewSim creates a fresh simulation bound to this session: workers are
// namespaced by the session id, accounted per session, and placed by the
// scheduler's capacity-aware fair-share policy. The scheduler remembers
// it for eviction; any previous sim for the session is replaced (callers
// stop it themselves).
func (ss *Session) NewSim(ctx context.Context, conv *units.Converter) *core.Simulation {
	sim := core.NewSimulation(ctx, ss.s.daemon, conv)
	ss.bind(sim)
	return sim
}

// ResumeSim rebuilds a session-bound simulation from a core manifest
// (setup replayed, snapshots restored, clock advanced) under this
// session's namespace and placement policy.
func (ss *Session) ResumeSim(ctx context.Context, conv *units.Converter, man *core.Manifest) (*core.Simulation, []*core.Model, error) {
	sim, models, err := core.ResumeSimulation(ctx, ss.s.daemon, conv, man, ss.id)
	if err != nil {
		return nil, nil, err
	}
	ss.bind(sim)
	return sim, models, nil
}

// Sim returns the session's live simulation (nil when none).
func (ss *Session) Sim() *core.Simulation {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	return ss.sim
}

// bind registers a simulation as the session's live coupler and installs
// the session namespace and the fair-share placer.
func (ss *Session) bind(sim *core.Simulation) {
	sim.SetSession(ss.id)
	d := ss.s.daemon.Deployment()
	sim.SetPlacer(func(spec core.WorkerSpec) (string, error) {
		return core.SelectLeastLoaded(d, spec)
	})
	ss.mu.Lock()
	ss.sim = sim
	// A freshly bound sim supersedes any previous eviction record.
	ss.snapshot = nil
	ss.mu.Unlock()
}

// genericSnapshot is the default evictor: checkpoint the whole simulation
// into a self-contained manifest and encode it (kernel.Decode inverts it). Simulations with no
// models produce no snapshot (nothing to resume).
func genericSnapshot(ctx context.Context, sim *core.Simulation) ([]byte, error) {
	man, err := sim.Checkpoint(ctx)
	if err != nil {
		return nil, err
	}
	if len(man.Models) == 0 {
		return nil, nil
	}
	return kernel.Encode(man), nil
}
