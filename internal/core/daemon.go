package core

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"jungle/internal/core/kernel"
	"jungle/internal/deploy"
	"jungle/internal/gat"
	"jungle/internal/ipl"
	"jungle/internal/smartsockets"
	"jungle/internal/watchdog"
)

// Daemon is the per-user Ibis daemon of Fig. 5: it runs on the user's
// machine, where the coupler reaches it over a local loopback socket
// (crossed in line: relay), starts workers on remote resources through
// IbisDeploy/JavaGAT, and relays RPC to each worker's proxy over IPL.
// "The user must start this daemon on his or her machine before running
// any simulation, but it can be re-used for all simulations run."
type Daemon struct {
	env        *Env
	deployment *deploy.Deployment
	registry   *ipl.Registry
	ibis       *ipl.Ibis
	loop       hop // §5's loopback socket between the coupler and the daemon

	// ids allocates transfer stream ids, staging slots and gang ids:
	// tokens that must be unique among this daemon's workers. They cross
	// the wire in a variable-width encoding, so a per-daemon sequence keeps
	// a fresh testbed's virtual time independent of what the process ran
	// before.
	ids atomic.Uint64

	mu       sync.Mutex
	workers  map[int]*workerHandle
	byMember map[string]*workerHandle // member identifier string -> handle
	nextID   int
	closed   bool
	// Session worker-id blocks: each named session gets a disjoint id
	// range (slot * sessionIDBlock), so everything keyed on the worker id
	// — pool port names, the per-id port block — is namespaced per
	// session. The default session ("") keeps the plain nextID sequence,
	// so single-tenant daemons number workers exactly as before. Slots
	// count up from 1 in order of first use and are never reused.
	sessionLast map[string]int // session -> the last id handed out in its block
	lastSlot    int

	// Checkpoint store: blobs staged by ref (NewStoreRef; ensemble.Run
	// files one per distinct setup), in memory.
	ckptMu    sync.Mutex
	ckptBlobs map[uint64][]byte

	// ReadyTimeout bounds (in real time) how long StartWorker waits for a
	// worker to announce itself.
	ReadyTimeout time.Duration

	// OnWorkerDied is invoked (if set) when a worker is found dead — the
	// pool reports it, or its request port broke; used for monitoring and
	// by the replacement logic.
	OnWorkerDied func(id int)

	wg sync.WaitGroup
}

// sessionIDBlock is the worker-id range reserved per named session.
const sessionIDBlock = 4096

// workerHandle is the daemon-side state for one worker.
type workerHandle struct {
	id   int
	spec WorkerSpec
	job  *gat.Job

	mu       sync.Mutex
	member   ipl.Identifier
	peer     workerPeer // an ibis worker's, set with member
	sendPort *ipl.SendPort
	recvPort *ipl.ReceivePort        // the worker's response port; closed with the worker
	pending  map[uint64]*connChannel // request id -> coupler channel awaiting the reply
	dead     bool

	ready chan ipl.Identifier
	// served is where a sockets worker's job hands over the channel to it,
	// instead of IPL state (nil for an ibis worker).
	served chan *connChannel
}

// WorkerSpec describes a worker to start — the per-worker properties the
// paper's users put in their simulation scripts (§5: channel, resource
// name, node count), plus the gang size for domain-decomposed kernels.
type WorkerSpec struct {
	Kind     Kind
	Kernel   string // "phigrape-cpu" | "phigrape-gpu" | "octgrav" | "fi" | "" (hydro/stellar)
	Resource string // deployment resource name; "" = automatic selection
	Nodes    int    // nodes for the worker's job (MPI workers use >1)
	Channel  string // "mpi" | "sockets" | "ibis" (default "ibis")
	// Workers is the gang size: a value K > 1 deploys the kernel as K
	// rank workers running one domain-decomposed instance behind a single
	// model handle. Gangs require the ibis channel (ranks exchange halos
	// over their peer planes) and a kind whose service implements
	// kernel.Shardable; ranks are co-located on one resource so the halo
	// traffic rides the fast intra-site links. 0 and 1 mean a solo worker.
	Workers int
	// Session names the control-plane session the worker belongs to ("" =
	// the daemon's default session). Sessions namespace everything derived
	// from the worker id — pool identities, peer-plane ports — so
	// concurrent sessions on one daemon cannot collide. Simulations stamp
	// it automatically from their own session label; only direct Daemon
	// users set it by hand.
	Session string
}

// NewDaemon starts the daemon for a deployment: an IPL registry and the
// daemon's own pool instance on the local host.
func NewDaemon(dep *deploy.Deployment, pool string) (*Daemon, error) {
	local := dep.LocalHost()
	reg, err := ipl.NewRegistry(dep.Net, local, local)
	if err != nil {
		return nil, fmt.Errorf("core: daemon registry: %w", err)
	}
	env := &Env{Net: dep.Net, Deployment: dep, Pool: pool, Registry: reg.Addr()}
	d := &Daemon{
		env: env, deployment: dep, registry: reg, loop: newHop(dep.Net, local),
		workers:      make(map[int]*workerHandle),
		byMember:     make(map[string]*workerHandle),
		sessionLast:  make(map[string]int),
		ReadyTimeout: 30 * time.Second,
	}

	dep.Catalog.Register("amuse-worker", func(ctx *gat.Context) error {
		return workerMain(env, ctx)
	})
	dep.Catalog.Register("amuse-socket-worker", func(ctx *gat.Context) error {
		return d.socketWorkerMain(ctx)
	})

	ib, err := ipl.Create(dep.Net, ipl.Config{
		Pool: pool, Host: local, BasePort: workerPortBase - 100,
		HubHost: local, Registry: reg.Addr(),
	})
	if err != nil {
		reg.Close()
		return nil, fmt.Errorf("core: daemon pool join: %w", err)
	}
	d.ibis = ib
	if _, err := ib.Elect(electionDaemon); err != nil {
		ib.End()
		reg.Close()
		return nil, err
	}

	d.ckptBlobs = make(map[uint64][]byte)
	d.wg.Add(1)
	go d.eventLoop()
	return d, nil
}

// Env returns the daemon's worker environment.
func (d *Daemon) Env() *Env { return d.env }

// Deployment returns the deployment the daemon manages.
func (d *Daemon) Deployment() *deploy.Deployment { return d.deployment }

// Close shuts the daemon down: workers' ports close, jobs are canceled.
func (d *Daemon) Close() {
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return
	}
	d.closed = true
	handles := make([]*workerHandle, 0, len(d.workers))
	for _, wh := range d.workers {
		handles = append(handles, wh)
	}
	d.mu.Unlock()
	for _, wh := range handles {
		wh.closePorts()
		wh.mu.Lock()
		job := wh.job
		wh.mu.Unlock()
		if job != nil {
			job.Cancel()
		}
	}
	d.ibis.End()
	d.registry.Close()
	d.wg.Wait()
}

// StoreCheckpoint files a blob under a ref. The blob must not be mutated
// afterwards.
func (d *Daemon) StoreCheckpoint(id uint64, blob []byte) {
	d.ckptMu.Lock()
	d.ckptBlobs[id] = blob
	d.ckptMu.Unlock()
}

// CheckpointBlob returns a stored blob.
func (d *Daemon) CheckpointBlob(id uint64) ([]byte, bool) {
	d.ckptMu.Lock()
	defer d.ckptMu.Unlock()
	b, ok := d.ckptBlobs[id]
	return b, ok
}

// DropCheckpoint releases a stored blob.
func (d *Daemon) DropCheckpoint(id uint64) {
	d.ckptMu.Lock()
	delete(d.ckptBlobs, id)
	d.ckptMu.Unlock()
}

// worker returns the handle of worker id, nil if the daemon has none.
func (d *Daemon) worker(id int) *workerHandle {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.workers[id]
}

// WorkerAlive reports whether a worker id is known and not dead — the
// gang recovery path uses it to find which rank to restart.
func (d *Daemon) WorkerAlive(id int) bool {
	wh := d.worker(id)
	if wh == nil {
		return false
	}
	wh.mu.Lock()
	defer wh.mu.Unlock()
	return !wh.dead
}

// holdsNodes reports whether worker id's job has not ended, dead worker or
// not: until it ends, its nodes count in the deployment's OccupiedNodes.
func (d *Daemon) holdsNodes(id int) bool {
	wh := d.worker(id)
	if wh == nil {
		return false
	}
	wh.mu.Lock()
	job := wh.job
	wh.mu.Unlock()
	if job == nil {
		return false
	}
	select {
	case <-job.Done():
		return false
	default:
		return true
	}
}

// SessionWorkers returns the live worker ids owned by a session, sorted.
func (d *Daemon) SessionWorkers(session string) []int {
	d.mu.Lock()
	handles := make([]*workerHandle, 0, len(d.workers))
	for _, wh := range d.workers {
		handles = append(handles, wh)
	}
	d.mu.Unlock()
	var ids []int
	for _, wh := range handles {
		wh.mu.Lock()
		dead := wh.dead
		wh.mu.Unlock()
		if !dead && wh.spec.Session == session {
			ids = append(ids, wh.id)
		}
	}
	sort.Ints(ids)
	return ids
}

var reqIDs atomic.Uint64

// ibisChannel opens the coupler side of an ibis channel: its calls reach
// relay in line, and their responses come back from onResponse.
func (d *Daemon) ibisChannel(obs *chanObs) *connChannel {
	return &connChannel{daemon: d, obs: obs, pending: make(map[uint64]pendingCall)}
}

// relay takes a call the coupler's channel ch started across the loopback
// socket and on to its worker's request port, routed by the request's own
// ID and worker. A call for a worker that is unknown or dead is answered by
// the daemon itself.
func (d *Daemon) relay(ch *connChannel, req request) {
	frame := req.Frame()
	at := d.loop.cross(len(frame), req.SentAt)
	wh := d.worker(req.Worker)
	if wh == nil {
		// A routing failure is a transport fault, not a worker death: no
		// worker with that id exists on this daemon.
		d.reply(ch, req.ID, at, kernel.CodeTransport, fmt.Sprintf("core: no worker %d", req.Worker))
		return
	}
	wh.mu.Lock()
	dead, sp := wh.dead, wh.sendPort
	if !dead && sp != nil {
		wh.pending[req.ID] = ch
	}
	wh.mu.Unlock()
	if dead || sp == nil {
		d.reply(ch, req.ID, at, kernel.CodeWorkerDied, ErrWorkerDied.Error())
		return
	}
	if err := sp.Write(frame, at); err != nil {
		// The proxy closed its request port: the worker is gone, and the
		// daemon knows it before the pool's Died event says so. Failing it
		// here (this call included) keeps WorkerAlive in step with what
		// callers have already been told.
		d.failWorker(wh)
	}
}

// reply answers a call on ch with the daemon's own coded error, sent back
// across the loopback socket at virtual time at.
func (d *Daemon) reply(ch *connChannel, id uint64, at time.Duration, code kernel.Code, errStr string) {
	resp := response{ID: id, Code: code, Err: errStr, DoneAt: at}
	ch.answer(id, resp, d.loop.cross(len(kernel.AppendResponse(nil, &resp)), at), nil)
}

// onResponse handles a proxy's response (or ready announcement): it goes
// back across the loopback socket, decoded, to the channel waiting for it.
// A response the daemon cannot parse ends its call as a transport fault; one
// without an ID to answer fails the worker, as the proxy ends itself on a
// request without one.
func (d *Daemon) onResponse(wh *workerHandle, rm ipl.ReadMessage) {
	var resp response
	err := kernel.UnmarshalResponse(rm.Data, &resp)
	switch {
	case err != nil && resp.ID == 0:
		d.failWorker(wh)
		return
	case err != nil:
		err = fmt.Errorf("%w: daemon received an undecodable response: %v", kernel.ErrTransport, err)
	case resp.ID == 0: // ready marker
		select {
		case wh.ready <- rm.From:
		default:
		}
		return
	}
	wh.mu.Lock()
	ch := wh.pending[resp.ID]
	delete(wh.pending, resp.ID)
	wh.mu.Unlock()
	if ch != nil {
		ch.answer(resp.ID, resp, d.loop.cross(len(rm.Data), rm.Arrival), err)
	}
}

// eventLoop watches pool membership: a Died member fails its worker —
// requirement 4's monitoring hook and the paper's fault behaviour.
func (d *Daemon) eventLoop() {
	defer d.wg.Done()
	for ev := range d.ibis.Events() {
		if ev.Kind != ipl.Died {
			continue
		}
		d.mu.Lock()
		wh := d.byMember[ev.Member.String()]
		d.mu.Unlock()
		if wh != nil {
			d.failWorker(wh)
		}
	}
}

// closePorts closes the worker's request and response ports, and with
// them the connections and the reader goroutine behind the response port.
func (wh *workerHandle) closePorts() {
	wh.mu.Lock()
	sp, rp := wh.sendPort, wh.recvPort
	wh.mu.Unlock()
	if sp != nil {
		sp.Close()
	}
	if rp != nil {
		rp.Close()
	}
}

// failWorker marks a worker dead, fails all pending calls and, unless the
// worker was already dead or stopped, reports the death to OnWorkerDied.
// The handle stays in the table, so calls still addressed to the worker
// keep failing as worker deaths, until its owner retires it with
// StopWorker.
func (d *Daemon) failWorker(wh *workerHandle) {
	wh.mu.Lock()
	newly := !wh.dead
	wh.dead = true
	pend := wh.pending
	wh.pending = make(map[uint64]*connChannel)
	wh.mu.Unlock()
	wh.closePorts()
	for id, ch := range pend {
		d.reply(ch, id, 0, kernel.CodeWorkerDied, ErrWorkerDied.Error())
	}
	d.mu.Lock()
	hook := d.OnWorkerDied
	d.mu.Unlock()
	if newly && hook != nil {
		hook(wh.id)
	}
}

// nextWorkerIDLocked allocates a worker id. The default session ("") uses
// the plain counter; a named session draws from its own disjoint id block
// so its pool port names and peer-plane ports never collide with another
// tenant's. Caller holds d.mu.
func (d *Daemon) nextWorkerIDLocked(session string) (int, error) {
	if session == "" {
		d.nextID++
		return d.nextID, nil
	}
	id, ok := d.sessionLast[session]
	if !ok {
		d.lastSlot++
		id = d.lastSlot * sessionIDBlock
	}
	if id%sessionIDBlock == sessionIDBlock-1 {
		return 0, fmt.Errorf("core: session %q exhausted its %d-worker id block", session, sessionIDBlock-1)
	}
	d.sessionLast[session] = id + 1
	return id + 1, nil
}

// ForgetSession drops a closed session's id block. Its slot is not reused,
// so no worker id depends on what was forgotten. An evicted session is not
// over: it resumes in its own block, and must not be forgotten.
func (d *Daemon) ForgetSession(session string) {
	d.mu.Lock()
	delete(d.sessionLast, session)
	d.mu.Unlock()
}

// SessionBlocks returns how many sessions hold a worker-id block.
func (d *Daemon) SessionBlocks() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.sessionLast)
}

// StartWorker launches a worker per spec and returns its id. For the ibis
// channel this is Fig. 5 end to end: submit job via IbisDeploy, wait for
// the proxy to join the pool and announce, then connect the request port.
// ctx bounds the wait for the worker's ready announcement (on top of
// ReadyTimeout); nil means no context deadline. Specs with Workers > 1
// must go through StartGang.
func (d *Daemon) StartWorker(ctx context.Context, spec WorkerSpec) (int, error) {
	if spec.Workers > 1 {
		return 0, fmt.Errorf("core: spec asks for a gang of %d workers; use StartGang", spec.Workers)
	}
	id, _, err := d.startWorker(ctx, spec, 0, 1)
	return id, err
}

// StartGang launches the spec.Workers rank workers of one gang and
// returns their ids in rank order. All ranks are co-located on one
// resource (selected once if the spec leaves it open) so the gang's halo
// traffic rides the site's internal links. The jobs are submitted in rank
// order, and a cluster scheduler places a job as it is submitted, so rank r
// lands on the same node on every run — on a heterogeneous site, where the
// slow node sits in the gang decides its virtual times. The ranks report in
// concurrently, so a start waits for the slowest rank, not for the sum;
// their request ports are then dialled in rank order, as the overlay's
// connection setup depends on the order of the dials. On any failure the
// already-started ranks are stopped. The ranks come back wired to the pool
// but not yet to each other — the coupler's gang_init (sent per rank over
// the ordinary channel) completes the link wiring.
func (d *Daemon) StartGang(ctx context.Context, spec WorkerSpec) ([]int, error) {
	k := spec.Workers
	if k < 2 {
		return nil, fmt.Errorf("core: gang needs at least 2 workers, got %d", k)
	}
	if spec.Channel == "" {
		spec.Channel = ChannelIbis
	}
	if spec.Channel != ChannelIbis {
		return nil, fmt.Errorf("core: gangs require the ibis channel (got %q): ranks exchange halos over their peer planes", spec.Channel)
	}
	if spec.Resource == "" {
		resource, err := SelectResource(d.deployment, spec)
		if err != nil {
			return nil, err
		}
		spec.Resource = resource
	}
	ids, whs := make([]int, 0, k), make([]*workerHandle, 0, k)
	stop := func(err error) ([]int, error) {
		for _, id := range ids {
			d.StopWorker(id)
		}
		return nil, fmt.Errorf("core: gang start: %w", err)
	}
	for r := 0; r < k; r++ {
		wh, err := d.submitWorker(spec, r, k)
		if err != nil {
			return stop(fmt.Errorf("rank %d: %w", r, err))
		}
		ids, whs = append(ids, wh.id), append(whs, wh)
	}
	members := make([]ipl.Identifier, k)
	errs := make([]error, k)
	var wg sync.WaitGroup
	for r, wh := range whs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			members[r], _, errs[r] = d.awaitWorker(ctx, wh)
		}()
	}
	wg.Wait()
	err := errors.Join(errs...)
	for r := 0; r < k && err == nil; r++ {
		err = d.connectWorker(whs[r], members[r])
	}
	if err != nil {
		return stop(err)
	}
	return ids, nil
}

// startWorker is the shared launch path; rank/size place the worker in
// its gang (0/1 for solo workers). A sockets worker comes back with the
// channel to it, without an observer.
func (d *Daemon) startWorker(ctx context.Context, spec WorkerSpec, rank, size int) (int, *connChannel, error) {
	wh, err := d.submitWorker(spec, rank, size)
	if err != nil {
		return 0, nil, err
	}
	member, ch, err := d.awaitWorker(ctx, wh)
	if err == nil && ch == nil {
		err = d.connectWorker(wh, member)
	}
	if err != nil {
		return 0, nil, err
	}
	return wh.id, ch, nil
}

// submitWorker registers a worker and submits its job; awaitWorker waits
// for it to report in. A failed submit has stopped the worker.
func (d *Daemon) submitWorker(spec WorkerSpec, rank, size int) (*workerHandle, error) {
	if spec.Channel == "" {
		spec.Channel = ChannelIbis
	}
	if spec.Nodes < 1 {
		spec.Nodes = 1
	}
	resource := spec.Resource
	if resource == "" {
		var err error
		resource, err = SelectResource(d.deployment, spec)
		if err != nil {
			return nil, err
		}
		spec.Resource = resource
	}
	if _, err := d.deployment.Resource(resource); err != nil {
		return nil, err
	}

	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return nil, ErrChannelClosed
	}
	id, err := d.nextWorkerIDLocked(spec.Session)
	if err != nil {
		d.mu.Unlock()
		return nil, err
	}
	wh := &workerHandle{
		id: id, spec: spec,
		pending: make(map[uint64]*connChannel),
		ready:   make(chan ipl.Identifier, 1),
	}
	exe := "amuse-worker"
	if spec.Channel == ChannelSockets {
		exe, wh.served = "amuse-socket-worker", make(chan *connChannel, 1)
	}
	d.workers[id] = wh
	d.mu.Unlock()

	// A failed start is a stop: the job (if submitted) is canceled, the
	// response port closes, the id leaves the table, and it returns once
	// the job has ended, so its nodes no longer count (OccupiedNodes).
	fail := func(err error) (*workerHandle, error) {
		d.StopWorker(id)
		return nil, err
	}

	desc := gat.JobDescription{
		Executable: exe,
		Args:       workerJobArgs(spec.Kind, spec.Kernel, id, resource, rank, size),
		Nodes:      spec.Nodes,
	}

	// The way back is open before the job is submitted, so a start is a
	// wait on events — the worker reports in, or its job ends — never a
	// poll. Sockets channel: the job hands over the channel to it (served,
	// which stays nil, never ready, for an ibis worker). Ibis channel: the
	// response port.
	if wh.served == nil {
		rp, err := d.ibis.CreateReceivePort(ipl.ManyToOne, respPortName(id), func(rm ipl.ReadMessage) {
			d.onResponse(wh, rm)
		})
		if err != nil {
			return fail(err)
		}
		wh.mu.Lock()
		wh.recvPort = rp
		wh.mu.Unlock()
	}
	job, err := d.deployment.Submit(resource, desc)
	if err != nil {
		return fail(err)
	}
	wh.mu.Lock()
	wh.job = job
	wh.mu.Unlock()
	return wh, nil
}

// awaitWorker waits for a submitted worker to report in: a sockets worker
// with the channel to it, an ibis worker with its pool identity, which
// connectWorker dials. On any failure it stops the worker.
func (d *Daemon) awaitWorker(ctx context.Context, wh *workerHandle) (ipl.Identifier, *connChannel, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	wh.mu.Lock()
	job := wh.job
	wh.mu.Unlock()
	var err error
	t := watchdog.Start(d.ReadyTimeout) // watchdog: a job that runs but never reports in becomes a start error
	defer watchdog.Stop(t)
	select {
	case ch := <-wh.served:
		return ipl.Identifier{}, ch, nil
	case member := <-wh.ready:
		return member, nil, nil
	case <-job.Done():
		if err = job.Err(); err == nil {
			err = errors.New("core: worker job stopped before announcing")
		}
		err = fmt.Errorf("core: worker %d failed to start: %w", wh.id, err)
	case <-ctx.Done():
		err = fmt.Errorf("core: worker %d start: %w", wh.id, ctx.Err())
	case <-t.C:
		err = fmt.Errorf("core: worker %d did not announce within %v", wh.id, d.ReadyTimeout)
	}
	d.StopWorker(wh.id)
	return ipl.Identifier{}, nil, err
}

// connectWorker opens the request port to an ibis worker that reported in
// as member; on failure it stops the worker.
func (d *Daemon) connectWorker(wh *workerHandle, member ipl.Identifier) error {
	sp := d.ibis.CreateSendPort(ipl.OneToOne, reqPortName(wh.id))
	if err := sp.Connect(member, reqPortName(wh.id), 0); err != nil {
		sp.Close()
		d.StopWorker(wh.id)
		return fmt.Errorf("core: connect to worker %d: %w", wh.id, err)
	}
	wh.mu.Lock()
	wh.member = member
	wh.peer.Address = ipl.PeerAddr(member)
	wh.peer.name = wh.peer.String()
	wh.sendPort = sp
	wh.mu.Unlock()
	d.mu.Lock()
	d.byMember[member.String()] = wh
	d.mu.Unlock()
	return nil
}

// stopTimeout bounds (in real time) how long StopWorker waits for a
// canceled job to end.
const stopTimeout = 30 * time.Second

// StopWorker shuts one worker down gracefully and forgets it: its ports
// close, the id leaves the worker table, and it returns once the job has
// ended, so what a caller reads after it — the job table, the nodes the
// resource has occupied, the traffic — no longer changes. A job still
// running stopTimeout after its cancel is an error naming it.
func (d *Daemon) StopWorker(id int) error {
	d.mu.Lock()
	wh := d.workers[id]
	delete(d.workers, id)
	d.mu.Unlock()
	if wh == nil {
		return nil
	}
	wh.mu.Lock()
	job, member := wh.job, wh.member
	wh.dead = true
	wh.mu.Unlock()
	d.mu.Lock()
	delete(d.byMember, member.String())
	d.mu.Unlock()
	wh.closePorts()
	if job == nil {
		return nil
	}
	job.Cancel()                     // the proxy observes Cancel and tears itself down
	t := watchdog.Start(stopTimeout) // watchdog: a canceled job that never ends becomes a stop error
	defer watchdog.Stop(t)
	select {
	case <-job.Done():
		return nil
	case <-t.C:
		return fmt.Errorf("core: worker %d: job %d still %s %v after its cancel", id, job.ID, job.State(), stopTimeout)
	}
}

// KillWorker abruptly cancels a worker's job (the scheduler-kill fault of
// §5); the pool observes a death, and the model's next call replaces the
// worker if its last checkpoint covers it. Fault injection: tests and
// benchmarks only.
func (d *Daemon) KillWorker(id int) {
	wh := d.worker(id)
	if wh == nil {
		return
	}
	wh.mu.Lock()
	job := wh.job
	wh.mu.Unlock()
	if job != nil {
		job.Cancel()
	}
}

// WorkerJob returns the gat job behind a worker (diagnostics).
func (d *Daemon) WorkerJob(id int) *gat.Job {
	d.mu.Lock()
	defer d.mu.Unlock()
	if wh := d.workers[id]; wh != nil {
		return wh.job
	}
	return nil
}

// workerPeer is an ibis worker's peer-stream address (ipl.PeerAddr), where
// other workers dial it for direct state transfers, and its rendering, which
// every transfer to it carries: both made once, when the worker reports in.
type workerPeer struct {
	smartsockets.Address
	name string // Address.String()
}

// workerPeer resolves an ibis worker's peer-stream address. It reports
// false for non-ibis workers, workers still starting, and dead workers.
func (d *Daemon) workerPeer(id int) (workerPeer, bool) {
	wh := d.worker(id)
	if wh == nil {
		return workerPeer{}, false
	}
	wh.mu.Lock()
	defer wh.mu.Unlock()
	if wh.dead || wh.member.Host == "" {
		return workerPeer{}, false
	}
	return wh.peer, true
}

// AbortTransfer streams an abort marker for a transfer id to a worker's
// peer listener, so an accept_state whose offering side failed stops
// waiting immediately instead of timing out. Best effort: if the abort
// cannot be delivered the accept still fails via its timeout.
func (d *Daemon) AbortTransfer(addr smartsockets.Address, id uint64) {
	conn, err := d.ibis.DialPeer(addr, 0)
	if err != nil {
		return
	}
	defer conn.Close()
	conn.SetClass("peer")
	conn.Send(kernel.AppendTransferAbort(nil, id), 0)
}
