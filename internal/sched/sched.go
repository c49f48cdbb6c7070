// Package sched is the multi-tenant control plane behind jungled: one
// long-lived daemon serving many concurrent simulation sessions over the
// jungle the paper's prototype dedicated to a single user ("The user must
// start this daemon on his or her machine before running any simulation,
// but it can be re-used for all simulations run" — §5; this package makes
// the re-use concurrent).
//
// A Scheduler wraps the shared core.Daemon and owns four concerns:
//
//   - Admission control: at most MaxLive sessions run at once; further
//     attaches either wait in a bounded queue or are rejected with a
//     structured retry-after hint (kernel.CodeBusy on the wire).
//   - Isolation: each admitted session is bound to a session id that
//     namespaces everything it touches — disjoint worker-id blocks (and
//     with them pool port names and peer-plane ports).
//   - Placement: sessions resolve open WorkerSpecs through the
//     capacity-aware fair-share policy (core.SelectLeastLoaded), which
//     reads the nodes the deployment's worker jobs occupy until they end
//     (deploy.OccupiedNodes) — two sessions racing for one cluster cannot
//     both land on it when only one fits.
//   - Leases: clients renew their session with heartbeats; a session
//     idle past LeaseTTL is reaped — checkpointed through its evictor
//     into an opaque snapshot, its workers stopped and capacity
//     released — and parked as preempted. Re-attaching resumes it from
//     the snapshot bit-identically.
//
// The thin client side (gateway.go, client.go) serves many concurrent
// connections over the daemon's length-prefixed frame protocol; each
// connection is bound to the session namespace it attached.
package sched

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"jungle/internal/core"
	"jungle/internal/core/kernel"
	"jungle/internal/trace"
)

// Errors.
var (
	// ErrUnknownSession is returned for operations on a session id that
	// was never attached (or was closed and forgotten).
	ErrUnknownSession = errors.New("sched: unknown session")
	// ErrSessionClosed is returned for operations on a session closed
	// within the last trace.RetiredWindow closes.
	ErrSessionClosed = errors.New("sched: session closed")
	// ErrSchedulerClosed is returned once the scheduler shut down.
	ErrSchedulerClosed = errors.New("sched: scheduler closed")
)

// BusyError is an admission-control rejection: the plane has no capacity
// for the session right now. It unwraps to kernel.ErrBusy, so callers
// branch with errors.Is; RetryAfter is the structured backoff hint that
// travels in the CodeBusy response payload for remote clients.
type BusyError struct {
	RetryAfter time.Duration
	Queued     int // sessions already waiting for admission
}

func (e *BusyError) Error() string {
	return fmt.Sprintf("sched: control plane full (%d queued); retry after %v", e.Queued, e.RetryAfter)
}

// Unwrap keys errors.Is(err, kernel.ErrBusy) / core.ErrBusy: an interface method.
func (e *BusyError) Unwrap() error { return kernel.ErrBusy }

// RunFunc executes one unit of work for a session. The payload is the
// client's opaque request (jungled: an encoded experiment workload);
// the returned bytes travel back verbatim. The handler uses the Session
// to create or resume its session-bound simulation.
type RunFunc func(ctx context.Context, sess *Session, payload []byte) ([]byte, error)

// Config tunes a Scheduler. Zero values select the defaults.
type Config struct {
	MaxLive    int           // concurrent running sessions (default 4)
	QueueCap   int           // admission queue bound (default 8)
	LeaseTTL   time.Duration // idle-reap threshold (default 30s)
	RetryAfter time.Duration // hint in busy rejections (default 500ms)
	// Recorder is the scheduler's own sink for its session lifecycle rows
	// and the CloseSession fold (optional). It must be the deployment's
	// recorder, the one its network carries: a session's simulations
	// account there, and CloseSession folds what they recorded.
	Recorder *trace.Recorder
	Run      RunFunc // run handler for gateway session_run ops
	// Now is the lease clock (default time.Now); tests inject one to
	// expire leases deterministically.
	Now func() time.Time
}

func (c Config) maxLive() int {
	if c.MaxLive > 0 {
		return c.MaxLive
	}
	return 4
}

func (c Config) queueCap() int {
	if c.QueueCap > 0 {
		return c.QueueCap
	}
	return 8
}

func (c Config) leaseTTL() time.Duration {
	if c.LeaseTTL > 0 {
		return c.LeaseTTL
	}
	return 30 * time.Second
}

func (c Config) retryAfter() time.Duration {
	if c.RetryAfter > 0 {
		return c.RetryAfter
	}
	return 500 * time.Millisecond
}

func (c Config) now() time.Time {
	if c.Now != nil {
		return c.Now()
	}
	return time.Now()
}

// Scheduler is the control plane: admission, placement, leases and
// eviction for every session sharing one daemon.
type Scheduler struct {
	daemon *core.Daemon
	cfg    Config

	mu sync.Mutex
	// sessions holds the sessions not closed; a closed id leaves it for
	// retired, so what closed sessions hold is one fixed window.
	sessions map[string]*Session
	retired  trace.Retired
	live     int
	queue    []*waiter
	closed   bool
	// freed, once a busy rejection made it, closes when a live slot or a
	// queue place next frees (AttachRetry waits on it).
	freed chan struct{}
}

// waiter is one attach parked in the admission queue.
type waiter struct {
	sess  *Session
	ready chan error
	// from is the state the session held before its first parked attach:
	// preempted, or queued for a session that never ran.
	from State
}

// New creates a scheduler over a running daemon.
func New(d *core.Daemon, cfg Config) *Scheduler {
	return &Scheduler{daemon: d, cfg: cfg, sessions: make(map[string]*Session)}
}

// Daemon returns the shared daemon.
func (s *Scheduler) Daemon() *core.Daemon { return s.daemon }

// Recorder returns the accounting recorder (may be nil).
func (s *Scheduler) Recorder() *trace.Recorder { return s.cfg.Recorder }

// Attach admits a new session, re-attaches to a running one, or revives a
// preempted one. wait parks the attach in the bounded admission queue
// when the plane is full instead of rejecting; ctx bounds the park.
// resumed reports that the session came back from preemption and has a
// snapshot to resume from.
func (s *Scheduler) Attach(ctx context.Context, id string, wait bool) (sess *Session, resumed bool, err error) {
	sess, resumed, _, err = s.attach(ctx, id, wait)
	return sess, resumed, err
}

// attach is Attach. On a busy rejection it also returns the channel that
// closes when a live slot or a queue place next frees, taken under the
// lock that decided the rejection, so no wake-up falls between them.
func (s *Scheduler) attach(ctx context.Context, id string, wait bool) (sess *Session, resumed bool, freed <-chan struct{}, err error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if id == "" {
		return nil, false, nil, errors.New("sched: empty session id")
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, false, nil, ErrSchedulerClosed
	}
	sess = s.sessions[id]
	created := sess == nil
	if created {
		if s.retired.Has(id) {
			s.mu.Unlock()
			return nil, false, nil, fmt.Errorf("%w: %q", ErrSessionClosed, id)
		}
		sess = newSession(s, id)
		s.sessions[id] = sess
	}
	switch sess.getState() {
	case StateRunning:
		sess.touch(s.cfg.now())
		s.mu.Unlock()
		return sess, false, nil, nil
	case StateQueued:
		// Another attach is already parked for this session; fall through
		// to park this one too (both resolve when the session is admitted).
	}
	resumed = sess.hasSnapshot()
	if s.live < s.cfg.maxLive() {
		s.admitLocked(sess, resumed)
		s.mu.Unlock()
		return sess, resumed, nil, nil
	}
	if !wait || len(s.queue) >= s.cfg.queueCap() {
		if created {
			// A refused new id leaves no record behind.
			delete(s.sessions, id)
		}
		berr := &BusyError{RetryAfter: s.cfg.retryAfter(), Queued: len(s.queue)}
		if s.freed == nil {
			s.freed = make(chan struct{})
		}
		freed = s.freed
		s.mu.Unlock()
		return nil, false, freed, berr
	}
	w := &waiter{sess: sess, ready: make(chan error, 1), from: sess.getState()}
	for _, q := range s.queue {
		if q.sess == sess {
			w.from = q.from
			break
		}
	}
	s.queue = append(s.queue, w)
	sess.setState(StateQueued)
	s.mu.Unlock()

	select {
	case err := <-w.ready:
		if err != nil {
			return nil, false, nil, err
		}
		return sess, resumed, nil, nil
	case <-ctx.Done():
		s.mu.Lock()
		found := false
		for i, q := range s.queue {
			if q == w {
				s.queue = append(s.queue[:i], s.queue[i+1:]...)
				found = true
				s.wakeLocked()
				break
			}
		}
		if found {
			s.unparkLocked(w)
		}
		s.mu.Unlock()
		if !found {
			// The pump (or shutdown) already took this waiter off the
			// queue and resolved it; its outcome is on the channel. Honor
			// that outcome instead of the context — returning ctx.Err()
			// here would leak the admitted session's live slot.
			if err := <-w.ready; err != nil {
				return nil, false, nil, err
			}
			return sess, resumed, nil, nil
		}
		return nil, false, nil, ctx.Err()
	}
}

// unparkLocked settles the session of a waiter that just gave up, once no
// other waiter holds it: a preempted one goes back to preempted with its
// snapshot, and one that never ran leaves no record and no stats row.
// Caller holds s.mu.
func (s *Scheduler) unparkLocked(w *waiter) {
	sess := w.sess
	if sess.getState() != StateQueued {
		return
	}
	for _, q := range s.queue {
		if q.sess == sess {
			return
		}
	}
	if w.from == StatePreempted {
		sess.setState(StatePreempted)
		return
	}
	delete(s.sessions, sess.id)
	if rec := s.cfg.Recorder; rec != nil {
		rec.SessionState(sess.id, "")
	}
}

// wakeLocked wakes every AttachRetry waiting for a live slot or a queue
// place: one of them just freed. Caller holds s.mu.
func (s *Scheduler) wakeLocked() {
	if s.freed != nil {
		close(s.freed)
		s.freed = nil
	}
}

// admitLocked promotes a session to running. Caller holds s.mu.
func (s *Scheduler) admitLocked(sess *Session, resumed bool) {
	s.live++
	sess.setState(StateRunning)
	sess.touch(s.cfg.now())
	if resumed {
		if rec := s.cfg.Recorder; rec != nil {
			rec.SessionResume(sess.id)
		}
	}
}

// pumpLocked admits queued sessions in FIFO order while live slots are
// free. A session can be parked more than once (two attaches racing while
// it was queued); only the first waiter claims a slot — later waiters for
// the same session find it already running and share it, so one session
// can never consume two live slots. A pump follows every freed slot, so it
// wakes the AttachRetry waiters too. Caller holds s.mu.
func (s *Scheduler) pumpLocked() {
	s.wakeLocked()
	for i := 0; i < len(s.queue); {
		w := s.queue[i]
		st := w.sess.getState()
		switch {
		case st == StateRunning:
			s.queue = append(s.queue[:i], s.queue[i+1:]...)
			w.sess.touch(s.cfg.now())
			w.ready <- nil
		case st == StateClosed:
			s.queue = append(s.queue[:i], s.queue[i+1:]...)
			w.ready <- fmt.Errorf("%w: %q", ErrSessionClosed, w.sess.id)
		case s.live < s.cfg.maxLive():
			s.queue = append(s.queue[:i], s.queue[i+1:]...)
			s.admitLocked(w.sess, w.sess.hasSnapshot())
			w.ready <- nil
		default:
			// No slot for this waiter; keep its FIFO position and keep
			// scanning — waiters behind it may be duplicates of already
			// running (or closed) sessions that resolve without a slot.
			i++
		}
	}
}

// MaxLive returns the admission bound: how many sessions may run at
// once. Fan-out layers (internal/ensemble) size their concurrency and
// makespan models from it.
func (s *Scheduler) MaxLive() int { return s.cfg.maxLive() }

// AttachRetry attaches like Attach but absorbs busy rejections: on a
// *BusyError it waits until a live slot or a queue place frees (a close,
// an eviction, an admission from the queue or a parked attach giving up)
// and tries again, up to attempts tries in total (attempts <= 1 behaves
// like Attach); ctx bounds the wait. The RetryAfter hint is for remote
// clients, which cannot see the event. It reports how many busy
// rejections it absorbed — ensemble runs account retries per member.
func (s *Scheduler) AttachRetry(ctx context.Context, id string, wait bool, attempts int) (sess *Session, resumed bool, retries int, err error) {
	if ctx == nil {
		ctx = context.Background()
	}
	for {
		var freed <-chan struct{}
		sess, resumed, freed, err = s.attach(ctx, id, wait)
		if freed == nil || retries+1 >= attempts {
			return sess, resumed, retries, err
		}
		retries++
		select {
		case <-freed:
		case <-ctx.Done():
			return nil, false, retries, ctx.Err()
		}
	}
}

// Heartbeat renews a session's lease and returns its state.
func (s *Scheduler) Heartbeat(id string) (State, error) {
	sess, err := s.lookup(id)
	if err != nil {
		return "", err
	}
	sess.touch(s.cfg.now())
	return sess.getState(), nil
}

// Status returns the control-plane view of one session.
func (s *Scheduler) Status(id string) (core.SessionStatusReply, error) {
	sess, err := s.lookup(id)
	if err != nil {
		return core.SessionStatusReply{}, err
	}
	s.mu.Lock()
	live, queued := s.live, len(s.queue)
	s.mu.Unlock()
	return core.SessionStatusReply{
		State:   string(sess.getState()),
		Workers: len(s.daemon.SessionWorkers(id)),
		Live:    live,
		Queued:  queued,
	}, nil
}

// Session returns a live handle for an attached session id.
func (s *Scheduler) Session(id string) (*Session, error) { return s.lookup(id) }

// lookup returns the session id names: ErrSessionClosed for an id in the
// retired window, ErrUnknownSession for one never attached or forgotten.
func (s *Scheduler) lookup(id string) (*Session, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lookupLocked(id)
}

func (s *Scheduler) lookupLocked(id string) (*Session, error) {
	if sess := s.sessions[id]; sess != nil {
		return sess, nil
	}
	if s.retired.Has(id) {
		return nil, fmt.Errorf("%w: %q", ErrSessionClosed, id)
	}
	return nil, fmt.Errorf("%w: %q", ErrUnknownSession, id)
}

// ReapIdle evicts every running session whose lease expired (no
// heartbeat for LeaseTTL). It returns the reaped session ids.
func (s *Scheduler) ReapIdle(ctx context.Context) ([]string, error) {
	now := s.cfg.now()
	ttl := s.cfg.leaseTTL()
	s.mu.Lock()
	var expired []*Session
	for _, sess := range s.sessions {
		if sess.getState() == StateRunning && now.Sub(sess.beat()) > ttl {
			expired = append(expired, sess)
		}
	}
	s.mu.Unlock()
	var reaped []string
	var firstErr error
	for _, sess := range expired {
		if err := s.evict(ctx, sess); err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		reaped = append(reaped, sess.id)
	}
	return reaped, firstErr
}

// evict moves one session from running to preempted: its live work is
// checkpointed into an opaque snapshot (through the evictor its run handler
// installed, or the generic whole-simulation manifest), its workers stop,
// its capacity is released, and it parks as preempted. A later Attach
// resumes it from the snapshot. Evicting a non-running session is a no-op.
func (s *Scheduler) evict(ctx context.Context, sess *Session) error {
	if ctx == nil {
		ctx = context.Background()
	}
	sess.mu.Lock()
	if sess.state != StateRunning {
		sess.mu.Unlock()
		return nil
	}
	sim, evictor := sess.sim, sess.evictor
	sess.mu.Unlock()

	var snap []byte
	var err error
	switch {
	case evictor != nil:
		snap, err = evictor(ctx)
	case sim != nil:
		snap, err = genericSnapshot(ctx, sim)
	}
	if err != nil {
		return fmt.Errorf("sched: evict %q: %w", sess.id, err)
	}
	if sim != nil {
		sim.Stop()
	}

	sess.mu.Lock()
	if sess.state != StateRunning {
		// Closed while it was checkpointed: Close freed its slot.
		sess.mu.Unlock()
		return nil
	}
	sess.state = StatePreempted
	sess.sim = nil
	sess.evictor = nil
	if snap != nil {
		sess.snapshot = snap
	}
	sess.mu.Unlock()
	if rec := s.cfg.Recorder; rec != nil {
		rec.SessionState(sess.id, string(StatePreempted))
		rec.SessionEviction(sess.id)
	}

	s.mu.Lock()
	s.live--
	s.pumpLocked()
	s.mu.Unlock()
	return nil
}

// Close ends one session for good: workers stop, capacity releases, the
// id is retired, and a queued session (if any) is admitted into the freed
// slot. The session leaves nothing behind that
// grows: its record goes, its id joins the fixed window of retired ids
// (closing it again is a no-op, attaching it is ErrSessionClosed), its
// stats row and call series fold into the recorder's
// (closed) aggregates, and the daemon forgets its id block.
func (s *Scheduler) Close(id string) error {
	s.mu.Lock()
	sess, err := s.lookupLocked(id)
	if err != nil {
		s.mu.Unlock()
		if errors.Is(err, ErrSessionClosed) {
			return nil
		}
		return err
	}
	delete(s.sessions, id)
	s.retired.Add(id)
	sess.mu.Lock()
	state := sess.state
	sess.state = StateClosed
	sim := sess.sim
	sess.sim = nil
	sess.evictor = nil
	sess.snapshot = nil
	sess.mu.Unlock()
	s.mu.Unlock()

	if sim != nil {
		sim.Stop()
	}
	s.daemon.ForgetSession(id)
	if rec := s.cfg.Recorder; rec != nil {
		rec.CloseSession(id)
	}

	s.mu.Lock()
	if state == StateRunning {
		s.live--
	}
	s.pumpLocked()
	s.mu.Unlock()
	return nil
}

// Shutdown closes every session and refuses further attaches.
func (s *Scheduler) Shutdown() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	ids := make([]string, 0, len(s.sessions))
	for id := range s.sessions {
		ids = append(ids, id)
	}
	queue := s.queue
	s.queue = nil
	s.wakeLocked()
	s.mu.Unlock()
	for _, w := range queue {
		w.ready <- ErrSchedulerClosed
	}
	for _, id := range ids {
		s.Close(id)
	}
}

// Run executes one unit of work for a session through the configured run
// handler and counts it against the session's lease.
func (s *Scheduler) Run(ctx context.Context, id string, payload []byte) ([]byte, error) {
	if s.cfg.Run == nil {
		return nil, errors.New("sched: no run handler configured")
	}
	sess, err := s.lookup(id)
	if err != nil {
		return nil, err
	}
	if st := sess.getState(); st != StateRunning {
		return nil, fmt.Errorf("sched: session %q is %s, not running", id, st)
	}
	sess.touch(s.cfg.now())
	out, err := s.cfg.Run(ctx, sess, payload)
	sess.touch(s.cfg.now())
	return out, err
}
