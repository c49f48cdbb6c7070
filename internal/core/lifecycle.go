package core

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"slices"
	"time"

	"jungle/internal/core/kernel"
	"jungle/internal/trace"
)

// Model lifecycle (DESIGN.md § Model lifecycle). One function, rebuild,
// brings a proxy's endpoint — its channel and the workers behind it — up and
// makes it hold a known state, whatever the cause: birth, resume, a worker's
// death, Migrate, Resize; the cause only fills in a plan. What keeps
// rebuilds apart, and calls out of a half-built endpoint, is the proxy's
// phase under m.mu — never a lock held across an RPC:
//
//	      a call observes a death              settle: queue empty
//	live ─────────────────────────► rebuilding ───────────────────► live
//	      Migrate / Resize (begin)  {death|migrate|resize}
//	any ── Stop ──► stopped
//
// A rebuild that fails leaves a structured sticky error; a later call may
// start another attempt.

// phase is where a proxy is in its lifecycle; a rebuilding phase says why.
type phase uint8

const (
	phaseLive    phase = iota
	phaseDeath         // rebuilding: a call found the worker dead or the endpoint down
	phaseMigrate       // rebuilding: Migrate
	phaseResize        // rebuilding: Resize
	phaseStopped
)

func (p phase) rebuilding() bool { return p != phaseLive && p != phaseStopped }

func (m *modelProxy) currentPhase() phase {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.phase
}

// callClass says what a rebuild of its endpoint means for a call.
type callClass uint8

const (
	// bound calls belong to the endpoint they were issued for: transfer ops
	// name a worker's peer identity, and a replacement has a different one.
	// Issued during a rebuild they fail at once with ErrTransport, the class
	// TransferState and Checkpoint fall back on (to replayable calls).
	bound callClass = iota
	// replayable calls survive a rebuild: issued or failing during one they
	// wait in the parked queue and are re-issued against the new endpoint.
	replayable
	// ownCall marks the rebuild's own calls, the only ones to reach an
	// endpoint while it is half built. Their failure fails the rebuild.
	ownCall
)

// callOpts say how a call is issued. Passed by value: they cost a call no
// allocation.
type callOpts struct {
	class   callClass
	after   func([]byte) error // Call.after
	success func(seq uint64)   // Call.success
}

// issue is the one way a call reaches a worker: numbered in issue order,
// stamped with the virtual time at (the clock's, or for a continuation the
// time the calls it awaited completed — Call.await), and sent to the
// current endpoint unless that is being rebuilt. req names the method and
// carries the args — in its own frame, if it was built with one
// (kernel.NewStateRequest): then that frame is what leaves, and what a
// parked call keeps.
func (m *modelProxy) issue(at time.Duration, req request, o callOpts) *Call {
	method := req.Method
	c := newCall(m.sim.clock, o.after)
	c.seq = m.seq.Add(1)
	c.success = o.success
	m.mu.Lock()
	if e := m.elastic; e != nil && method == "evolve" {
		// The rebalancer samples rank loads after evolve steps; the hook
		// only bumps a counter and possibly spawns the async measurement
		// round (rebalance.go), so completion stays cheap.
		c.success = func(uint64) { e.evolveDone() }
	}
	if m.phase.rebuilding() && o.class != ownCall {
		if o.class == replayable {
			m.parked = append(m.parked, parkedCall{c: c, req: req, gen: neverSent})
		}
		m.mu.Unlock()
		if o.class == bound {
			c.finish(nil, fmt.Errorf("%w: %s.%s: the endpoint is being rebuilt", ErrTransport, m.kind, method), at)
		}
		return c
	}
	ep := m.endpointLocked()
	m.mu.Unlock()
	m.send(ep, c, req, o.class == replayable, at)
	return c
}

// send puts one attempt of a call on the endpoint's channel, stamped with
// the virtual time at.
func (m *modelProxy) send(ep endpoint, c *Call, req request, replayable bool, at time.Duration) {
	gen := ep.gen
	if ep.ch == nil {
		m.failed(parkedCall{c: c, req: req, gen: gen, cause: ErrChannelClosed}, replayable, at)
		return
	}
	m.sim.sessionAccount(func(rec *trace.Recorder, id string) {
		rec.SessionCall(id)
	})
	// What a replay needs, and all the completion keeps of the request: the
	// channel gives the frame away, a replay copies the args out of it into
	// a frame of its own.
	method, args := req.Method, req.Args
	req.ID, req.Worker, req.SentAt = reqIDs.Add(1), ep.worker, at
	ep.ch.start(req, func(resp response, arrival time.Duration, err error) {
		doneAt := at // a call that got no response ends when it was issued
		if err == nil {
			// A response arrived (success or structured failure): its
			// travel time is real either way.
			doneAt = arrival
			if err = kernel.ResponseError(&resp); err == nil {
				c.finish(resp.Result, nil, doneAt)
				return
			}
		}
		m.failed(parkedCall{c: c, req: request{Method: method, Args: args}, gen: gen, cause: err}, replayable, doneAt)
	})
}

// failed ends an attempt that did not succeed: a replayable call whose
// failure a rebuild cures parks; anything else is the call's error, and the
// model's sticky one.
func (m *modelProxy) failed(it parkedCall, replayable bool, doneAt time.Duration) {
	it.cause = fmt.Errorf("core: %s.%s: %w", m.kind, it.req.Method, it.cause)
	if replayable && m.park(it) {
		return
	}
	m.setErr(it.cause)
	it.c.finish(nil, it.cause, doneAt)
}

// parkedCall is one call waiting out a rebuild.
type parkedCall struct {
	c     *Call
	req   request // method and args; the frame too, while it was never sent
	gen   int     // the generation it failed against; neverSent if it parked at issue
	cause error   // what it failed with
}

const neverSent = -1

// park takes a failed call whose endpoint is gone, if a rebuild cures that,
// and starts an episode unless one is under way. Rebuilding resubmits a job
// and replays state — far too slow for the channel delivery goroutine this
// runs on — so the call queues; the phase guarantees one rebuild per death
// no matter how many pipelined calls observe it.
func (m *modelProxy) park(it parkedCall) bool {
	died := errors.Is(it.cause, ErrWorkerDied)
	if !died && !errors.Is(it.cause, ErrChannelClosed) {
		return false
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	switch {
	case m.phase == phaseStopped:
		return false
	case m.phase.rebuilding():
		// The rebuild's own teardown, or the death it is curing, took the
		// endpoint from under the call.
	case it.gen != m.gen, m.replaceableLocked() && (died || m.ch == nil):
		// A late failure on an endpoint since replaced needs only the
		// re-issue; a death, or an endpoint a failed rebuild left down, needs
		// the rebuild — if the model is replaceable. settle tells which.
		m.phase, m.settled = phaseDeath, make(chan struct{})
		go m.settle()
	default:
		return false
	}
	m.parked = append(m.parked, it)
	return true
}

// begin claims the proxy for a voluntary rebuild, waiting out one in
// flight: exactly one rebuild runs at a time — a death's restarting the old
// ranks while a migration starts new ones would strand workers.
func (m *modelProxy) begin(ctx context.Context, ph phase) error {
	for {
		m.mu.Lock()
		switch {
		case m.phase == phaseStopped:
			m.mu.Unlock()
			return errors.New("model is stopped")
		case m.phase == phaseLive:
			m.phase, m.settled = ph, make(chan struct{})
			m.mu.Unlock()
			return nil
		}
		settled := m.settled
		m.mu.Unlock()
		select {
		case <-settled:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// settle ends an episode: it re-issues the parked calls in issue order,
// restoring the per-worker FIFO pipelined callers rely on, and returns the
// proxy to live only when the queue is empty — a call issued while the
// backlog drains queues behind it instead of overtaking it. If parked calls
// failed on the endpoint the backlog would go to (a death's episode, a
// voluntary rebuild that broke down, a replacement that died too) and the
// model is replaceable, that endpoint is first rebuilt from the cached
// snapshot. Only a call never sent is re-issued replayable: every call gets
// one replay, so the loop ends.
func (m *modelProxy) settle() {
	for {
		m.mu.Lock()
		if len(m.parked) == 0 {
			if m.phase != phaseStopped {
				m.phase = phaseLive
			}
			close(m.settled)
			m.mu.Unlock()
			return
		}
		dead := m.ch == nil || slices.ContainsFunc(m.parked, func(it parkedCall) bool { return it.gen == m.gen })
		cure := dead && m.phase != phaseStopped && m.replaceableLocked()
		m.mu.Unlock()
		var failed error
		if cure {
			failed = m.rebuild(m.sim.ctx, m.deathPlan())
		}
		m.mu.Lock()
		batch, ep := m.parked, m.endpointLocked() // nobody else moves the endpoint during an episode
		m.parked = nil
		m.mu.Unlock()
		slices.SortFunc(batch, func(a, b parkedCall) int { return cmp.Compare(a.c.seq, b.c.seq) })
		for _, it := range batch {
			if failed == nil {
				m.send(ep, it.c, it.req, it.gen == neverSent, m.sim.clock.Now())
				continue
			}
			m.setErr(failed)
			it.c.finish(nil, fmt.Errorf("core: replacement failed: %w", failed), 0)
		}
	}
}

// plan is all a cause tells rebuild: which workers to retire, which shape
// to start, and where the snapshot comes from.
//
//	cause         retire            shape                     snapshot
//	birth         —                 the caller's spec         none
//	resume        —                 the manifest's spec       the manifest's
//	death, solo   the worker        same, resource re-placed  cached
//	death, gang   dead ranks only   same, same resource       cached
//	Migrate       all               same on the target        fresh pull
//	Resize        all               new K, same resource      fresh pull
type plan struct {
	cause string // for errors: "birth", "resume", "replacement", "migration", "resize"
	// retire lists the workers to stop. Fewer than the gang has: the others
	// survive with their jobs, ids and channels; the retired restart in place.
	retire []int
	shape  WorkerSpec // Resource "" re-places through the session's policy
	// pull takes a fresh snapshot through the call FIFO before anything is
	// torn down (the voluntary causes). Otherwise rebuild restores what the
	// proxy has cached: the last checkpoint's after a death, the manifest's
	// on resume (cached by the caller), nothing at birth.
	pull bool
}

// deathPlan is the plan a dead worker calls for.
func (m *modelProxy) deathPlan() plan {
	m.mu.Lock()
	p := plan{cause: "replacement", retire: m.workers, shape: m.spec}
	m.mu.Unlock()
	if p.shape.Workers > 1 {
		// Only dead ranks restart, and the gang stays on its resource —
		// co-location is a gang invariant (halo traffic rides intra-site
		// links); if the whole site is gone the restart fails and the
		// error is sticky.
		p.retire = slices.DeleteFunc(slices.Clone(p.retire), m.sim.daemon.WorkerAlive)
	} else {
		p.shape.Resource = "" // re-select: the failed resource may be gone
	}
	return p
}

// rebuild brings the proxy's endpoint up per plan and makes it hold the
// newest known state. It never touches the phase: its callers own the
// episode (newModel and resume have no one to keep out yet).
func (m *modelProxy) rebuild(ctx context.Context, p plan) error {
	ctx = m.sessionCtx(ctx)
	s := m.sim
	fail := func(stage string, err error) error {
		if p.pull {
			return fmt.Errorf("%w: %s %s: %w", ErrMigration, p.cause, stage, err)
		}
		return fmt.Errorf("core: %s %s: %s: %w", m.kind, p.cause, stage, err)
	}
	// replay runs one of the rebuild's own calls to completion.
	replay := func(method string, args []byte) error {
		return m.issue(s.clock.Now(), request{Method: method, Args: args}, callOpts{class: ownCall}).Wait(ctx)
	}
	m.mu.Lock()
	prev, ids, ch := m.spec, m.workers, m.ch
	m.mu.Unlock()

	if p.pull {
		// A shape the target cannot hold is refused while the model still
		// runs — not found out from jobs that queue until ReadyTimeout once
		// the old endpoint is gone.
		dep := s.daemon.Deployment()
		r, err := dep.Resource(p.shape.Resource)
		if err != nil {
			return fail("target", err)
		}
		if !fitsResource(dep, r, p.shape) {
			_, total := specDemand(p.shape)
			return fail("target", fmt.Errorf("%w: %s has %d free node(s), the new shape needs %d",
				ErrNoResource, r.Name, r.NodeCount()-dep.OccupiedNodesByOthers(r.Name, p.shape.Session), total))
		}
		// Fresh snapshot, pulled through the call FIFO: it completes only
		// after every in-flight pipelined call ahead of it, so the state it
		// captures is the state the caller observes. The endpoint is still
		// untouched here — a checkpoint failure aborts with the model
		// intact; a rank death fails the pull (not replayable: this rebuild
		// would be waiting for itself) and is cured when the episode settles.
		var blob []byte
		c := m.goCheckpointPull(&blob, ownCall)
		if err := c.Wait(ctx); err != nil {
			return fail("checkpoint", err)
		}
		m.mu.Lock()
		m.lastSnap, m.snapSeq = blob, c.seq // lastBlobRef still names the store's last checkpoint
		m.mu.Unlock()
	}

	var refused error
	if gch, ok := ch.(*gangChannel); ok && len(p.retire) < len(ids) {
		// Gang rank recovery: restart the retired ranks' jobs in place.
		// The member channels are daemon connections, not worker
		// connections, so they survive unchanged — requests route by
		// worker id.
		ids = slices.Clone(ids)
		var errs []error
		for r, id := range ids {
			if !slices.Contains(p.retire, id) {
				continue
			}
			fresh, err := s.daemon.startWorker(ctx, p.shape, r, len(ids))
			if err != nil {
				errs = append(errs, fmt.Errorf("rank %d: %w", r, err))
				continue
			}
			s.daemon.StopWorker(id) // retire the dead rank's handle
			ids[r] = fresh
		}
		gch.setWorkers(ids)
		if err := m.publish(p.shape, gch, ids); err != nil {
			return err
		}
		if len(errs) > 0 {
			return fail("rank restart", errors.Join(errs...))
		}
		// Re-wire the rank links: a fresh gang id keys the new hello
		// handshakes, every rank (survivors included) rebuilds its
		// communicator, and SetGang installs it over the closed one.
		if err := gch.wireGang(ctx, s); err != nil {
			return fail("re-wiring", err)
		}
	} else {
		// Retire the whole endpoint — channel first, so a call in flight
		// fails here, while the phase parks it, not at a daemon that has
		// forgotten the worker — and start the plan's shape. Until that is
		// published the endpoint is down.
		m.mu.Lock()
		m.ch, m.workers = nil, nil
		m.mu.Unlock()
		if ch != nil {
			ch.close()
		}
		for _, id := range p.retire {
			s.daemon.StopWorker(id)
		}
		if err := m.open(ctx, p.shape); err != nil {
			if !p.pull {
				return fail("start", err)
			}
			// A refused Migrate or Resize leaves the model running: bring
			// the previous shape back from the snapshot just pulled. If even
			// that fails the endpoint stays down, and the next replayable
			// call of a replaceable model rebuilds it from the cache.
			refused = fail("start on "+p.shape.Resource, err)
			if err := m.open(ctx, prev); err != nil {
				return fmt.Errorf("%w; previous shape on %s: %w", refused, prev.Resource, err)
			}
		}
	}

	// Rebuild bit-identical state, the same way for every cause: setup,
	// then the snapshot — the full model state including the kernel's
	// clock, broadcast to every rank of a gang (survivors' state is suspect
	// after an aborted collective, and ranks must match bit for bit) — then
	// the particle cache (mass/pos/vel only) over it if a push or sync
	// landed after the snapshot. A failure here (a rank killed
	// mid-migration) leaves the generation alone: the next call fails on
	// this endpoint, and its episode restarts what died.
	m.mu.Lock()
	snap, state := m.lastSnap, m.lastState
	overlay := state != nil && (snap == nil || m.stateSeq > m.snapSeq)
	m.mu.Unlock()
	if err := replay("setup", m.setup); err != nil {
		return fail("setup", err)
	}
	if snap != nil {
		start := s.clock.Now()
		if err := replay(kernel.MethodRestore, snap); err != nil {
			return fail("restore", err)
		}
		if rec := s.Monitor; rec != nil {
			rec.RecordRestore(string(m.kind), s.clock.Now()-start) // the store's restore-latency gauge
		}
	}
	if overlay {
		if err := replay("set_particles", kernel.Encode(*state)); err != nil {
			return fail("state overlay", err)
		}
	}

	m.mu.Lock()
	stopped := m.phase == phaseStopped // Stop retired the endpoint it found published
	delta := 0
	if !stopped {
		m.gen++
		delta = m.workerCountLocked() - m.accounted
		m.accounted += delta
	}
	m.mu.Unlock()
	if stopped {
		return ErrChannelClosed
	}
	if delta != 0 {
		s.sessionAccount(func(rec *trace.Recorder, id string) {
			rec.SessionWorkerDelta(id, delta)
		})
	}
	return refused
}

// open starts the shape's worker — on the resource the session's placement
// policy picks, if the shape leaves it open — and publishes the endpoint.
func (m *modelProxy) open(ctx context.Context, spec WorkerSpec) error {
	s, dep := m.sim, m.sim.daemon.Deployment()
	if spec.Workers > 1 && spec.Channel != ChannelIbis {
		return fmt.Errorf("core: gangs require the ibis channel, not %q (ranks exchange halos over their peer planes)", spec.Channel)
	}
	if spec.Resource == "" {
		// Resolve open specs here, through the session's placement policy,
		// for every channel — the daemon then starts the worker on exactly
		// the resource the policy picked.
		resource, err := s.place(spec)
		if err != nil {
			return err
		}
		spec.Resource = resource
	}
	switch spec.Channel {
	case ChannelMPI:
		// In-process worker on the local resource (AMUSE's default channel).
		res, err := dep.Resource(spec.Resource)
		if err != nil {
			return err
		}
		svc, err := newService(m.kind, res, []string{dep.LocalHost()}, s.daemon.Env(), nil)
		if err != nil {
			return err
		}
		return m.publish(spec, newLocalChannel(svc, s.observer(m.kind, spec.Resource, "", 0, -1)), nil)
	case ChannelSockets:
		id, err := s.daemon.StartWorker(ctx, spec)
		if err != nil {
			return err
		}
		obs := s.observer(m.kind, spec.Resource, dep.LocalHost(), id, -1)
		return m.publish(spec, newConnChannel(ChannelSockets, s.daemon.workerSocketConn(id), obs), []int{id})
	case ChannelIbis:
		// A gang is K rank workers, one daemon channel each, wired to each
		// other (gang_init) behind the gang channel — and behind this single
		// proxy, so callers see one model.
		var ids []int
		var err error
		if spec.Workers > 1 {
			ids, err = s.daemon.StartGang(ctx, spec)
		} else {
			ids = make([]int, 1)
			ids[0], err = s.daemon.StartWorker(ctx, spec)
		}
		if err != nil {
			return err
		}
		local := dep.LocalHost()
		members := make([]channel, len(ids))
		for i, id := range ids {
			conn, err := dep.Net.Dial(local, local, DaemonPort)
			if err != nil {
				m.retire(ids, members[:i]...)
				return err
			}
			conn.SetClass("loopback")
			rank := -1 // a solo worker's observer carries no rank label
			if len(ids) > 1 {
				rank = i
			}
			members[i] = newConnChannel(ChannelIbis, conn,
				s.observer(m.kind, spec.Resource, s.workerHost(id, spec.Resource), id, rank))
		}
		if len(ids) == 1 {
			return m.publish(spec, members[0], ids)
		}
		gch := newGangChannel(members, ids,
			s.gangObserver(m.kind, spec.Resource, s.workerHost(ids[0], spec.Resource), ids[0]))
		if err := gch.wireGang(ctx, s); err != nil {
			m.retire(ids, gch)
			return err
		}
		return m.publish(spec, gch, ids)
	default:
		return fmt.Errorf("core: unknown channel %q", spec.Channel)
	}
}

// retire closes channels and stops workers that were started but never
// published (or that Stop missed).
func (m *modelProxy) retire(ids []int, chs ...channel) {
	for _, ch := range chs {
		ch.close()
	}
	for _, id := range ids {
		m.sim.daemon.StopWorker(id)
	}
}

// publish installs a started endpoint — unless the model was stopped
// meanwhile: Stop tore down only what it could see, so retire the new one.
func (m *modelProxy) publish(spec WorkerSpec, ch channel, ids []int) error {
	m.mu.Lock()
	stopped := m.phase == phaseStopped
	if !stopped {
		m.spec, m.ch, m.workers = spec, ch, ids
	}
	m.mu.Unlock()
	if stopped {
		m.retire(ids, ch)
		return ErrChannelClosed
	}
	return nil
}

// shutdown marks the proxy stopped — vetoing any rebuild still in flight —
// closes the channel and stops every worker; it returns the close error.
func (m *modelProxy) shutdown() error {
	m.mu.Lock()
	m.phase = phaseStopped
	ch, ids, n := m.ch, m.workers, m.accounted
	m.accounted = 0
	m.mu.Unlock()
	if n != 0 {
		m.sim.sessionAccount(func(rec *trace.Recorder, id string) {
			rec.SessionWorkerDelta(id, -n)
		})
	}
	var err error
	if ch != nil {
		err = ch.close()
	}
	m.retire(ids)
	return err
}
