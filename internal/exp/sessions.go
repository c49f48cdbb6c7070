package exp

import (
	"bytes"
	"context"
	"encoding/gob"
	"fmt"
	"sync"
	"time"

	"jungle/internal/sched"
)

// Multi-tenant evaluation: scenario runs living inside jungled
// control-plane sessions. A SessionRun keeps the bridge alive across
// client calls (unlike RunScenario, which owns its simulation start to
// finish), installs an evictor so the scheduler can idle-reap the
// session into a resumable snapshot, and resumes bit-identically from
// one — the multi-tenant extension of the checkpoint/resume guarantee.

// SessionRun is one scenario run bound to a control-plane session.
type SessionRun struct {
	sess *sched.Session

	mu       sync.Mutex
	sb       *scenarioBridge
	scenario string
	w        Workload
	done     int
	setup    time.Duration
}

// StartSessionScenario starts the workload's models inside the session
// (scheduler-placed when the placement leaves resources open) and
// installs the eviction hook.
func StartSessionScenario(ctx context.Context, sess *sched.Session, w Workload, p Placement) (*SessionRun, error) {
	sim := sess.NewSim(ctx, nil)
	sb, err := startScenarioOn(ctx, sim, w, p)
	if err != nil {
		return nil, err
	}
	sr := &SessionRun{sess: sess, sb: sb, scenario: p.Name, w: w, setup: sim.Elapsed()}
	sess.SetEvictor(sr.evict)
	return sr, nil
}

// ResumeSessionScenario revives an evicted session run from its snapshot
// (Session.Snapshot after a resumed attach): workers rebuild from the
// manifest under the session's namespace, the bridge rewinds, and
// stepping continues exactly where the evicted run left off.
func ResumeSessionScenario(ctx context.Context, sess *sched.Session, snapshot []byte) (*SessionRun, error) {
	rc, err := decodeRunCheckpoint(snapshot)
	if err != nil {
		return nil, err
	}
	sim, models, err := sess.ResumeSim(ctx, nil, rc.Core)
	if err != nil {
		return nil, fmt.Errorf("exp: resume session %s: %w", sess.ID(), err)
	}
	sb, err := rebindScenario(rc, sim, models)
	if err != nil {
		sim.Stop()
		return nil, err
	}
	sr := &SessionRun{
		sess: sess, sb: sb, scenario: rc.Scenario, w: rc.W,
		done: rc.Done, setup: sim.Elapsed(),
	}
	sess.SetEvictor(sr.evict)
	return sr, nil
}

// evict checkpoints the live run into a self-contained snapshot.
func (sr *SessionRun) evict(ctx context.Context) ([]byte, error) {
	sr.mu.Lock()
	sb, done := sr.sb, sr.done
	sr.mu.Unlock()
	return sb.checkpoint(ctx, sr.scenario, sr.w, done, done)
}

// Step runs n bridge iterations.
func (sr *SessionRun) Step(ctx context.Context, n int) error {
	sr.mu.Lock()
	sb := sr.sb
	sr.mu.Unlock()
	for i := 0; i < n; i++ {
		if err := sb.bridge.Step(ctx); err != nil {
			return fmt.Errorf("exp: session scenario %s iteration %d: %w", sr.scenario, sr.Done()+i, err)
		}
		sr.mu.Lock()
		sr.done++
		sr.mu.Unlock()
	}
	return nil
}

// Done returns the completed iteration count (across evictions).
func (sr *SessionRun) Done() int {
	sr.mu.Lock()
	defer sr.mu.Unlock()
	return sr.done
}

// Result measures the run so far, including the end-of-run state digest
// the bit-compatibility guarantee is checked against.
func (sr *SessionRun) Result() (RunResult, error) {
	sr.mu.Lock()
	sb, done, setup := sr.sb, sr.done, sr.setup
	sr.mu.Unlock()
	digest, err := sb.stateDigest()
	if err != nil {
		return RunResult{}, err
	}
	per := time.Duration(0)
	if done > 0 {
		per = (sb.sim.Elapsed() - setup) / time.Duration(done)
	}
	return RunResult{
		Scenario:     sr.scenario,
		Iterations:   done,
		PerIteration: per,
		Setup:        setup,
		Supernovae:   sb.bridge.Supernovae(),
		Transfers:    sb.sim.TransferStats(),
		StateDigest:  digest,
	}, nil
}

// SessionWork is the gob payload a thin client (amuse-run -attach) sends
// through a session_run op: the workload for this session and how many
// bridge iterations to advance it. Repeated calls keep stepping the same
// live run; only the first call's workload matters (a resumed session's
// workload comes from its snapshot).
type SessionWork struct {
	W          Workload
	Iterations int
}

// SessionReport is the gob reply to a SessionWork: the run's cumulative
// measurement, including the state digest clients compare across
// evictions.
type SessionReport struct {
	Result  RunResult
	Resumed bool
}

// SessionRunner builds the sched.RunFunc jungled serves session_run with.
// Each session's first call starts its scenario (or resumes it from the
// eviction snapshot of a preempted life); later calls step the same
// bridge. The handler notices eviction by the session's live simulation
// changing underneath the cached run.
func SessionRunner() sched.RunFunc {
	var mu sync.Mutex
	runs := make(map[string]*SessionRun)
	return func(ctx context.Context, sess *sched.Session, payload []byte) ([]byte, error) {
		var work SessionWork
		if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&work); err != nil {
			return nil, fmt.Errorf("exp: decode session work: %w", err)
		}
		mu.Lock()
		sr := runs[sess.ID()]
		mu.Unlock()
		resumed := false
		if sr == nil || sess.Sim() == nil || sr.sb.sim != sess.Sim() {
			var err error
			if snap := sess.Snapshot(); len(snap) > 0 {
				sr, err = ResumeSessionScenario(ctx, sess, snap)
				resumed = true
			} else {
				sr, err = StartSessionScenario(ctx, sess, work.W, AutoPlacement())
			}
			if err != nil {
				return nil, err
			}
			mu.Lock()
			runs[sess.ID()] = sr
			mu.Unlock()
		}
		if work.Iterations > 0 {
			if err := sr.Step(ctx, work.Iterations); err != nil {
				return nil, err
			}
		}
		res, err := sr.Result()
		if err != nil {
			return nil, err
		}
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(SessionReport{Result: res, Resumed: resumed}); err != nil {
			return nil, fmt.Errorf("exp: encode session report: %w", err)
		}
		return buf.Bytes(), nil
	}
}

// RunSessionWorkload is the whole client story in one call: attach a
// session (waiting in the admission queue if the plane is full), start or
// resume the scenario, run iterations, measure, and close the session.
func RunSessionWorkload(ctx context.Context, s *sched.Scheduler, id string, w Workload, p Placement, iterations int) (RunResult, error) {
	sess, resumed, err := s.Attach(ctx, id, true)
	if err != nil {
		return RunResult{}, err
	}
	var sr *SessionRun
	if resumed {
		sr, err = ResumeSessionScenario(ctx, sess, sess.Snapshot())
	} else {
		sr, err = StartSessionScenario(ctx, sess, w, p)
	}
	if err != nil {
		s.Close(id)
		return RunResult{}, err
	}
	if err := sr.Step(ctx, iterations); err != nil {
		s.Close(id)
		return RunResult{}, err
	}
	res, err := sr.Result()
	if cerr := s.Close(id); err == nil && cerr != nil {
		err = cerr
	}
	return res, err
}

// RunConcurrentSessions runs n single-tenant workloads through the
// control plane — concurrently (one goroutine per session) or
// sequentially — and returns the per-session results in session order.
// The aggregate wall-clock comparison between the two modes is the
// multi-tenancy throughput measurement (BenchmarkConcurrentSessions).
func RunConcurrentSessions(ctx context.Context, s *sched.Scheduler, w Workload, p Placement, iterations, n int, concurrent bool) ([]RunResult, error) {
	results := make([]RunResult, n)
	errs := make([]error, n)
	runOne := func(i int) {
		id := fmt.Sprintf("session-%02d", i)
		results[i], errs[i] = RunSessionWorkload(ctx, s, id, w, p, iterations)
	}
	if concurrent {
		var wg sync.WaitGroup
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				runOne(i)
			}(i)
		}
		wg.Wait()
	} else {
		for i := 0; i < n; i++ {
			runOne(i)
		}
	}
	for _, err := range errs {
		if err != nil {
			return results, err
		}
	}
	return results, nil
}
