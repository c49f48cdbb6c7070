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
	"jungle/internal/vnet"
)

// Daemon is the per-user Ibis daemon of Fig. 5: it runs on the user's
// machine, accepts coupler connections over a local loopback socket, starts
// workers on remote resources through IbisDeploy/JavaGAT, and relays RPC to
// each worker's proxy over IPL. "The user must start this daemon on his or
// her machine before running any simulation, but it can be re-used for all
// simulations run."
type Daemon struct {
	env        *Env
	deployment *deploy.Deployment
	registry   *ipl.Registry
	ibis       *ipl.Ibis
	listener   *vnet.Listener

	// ids allocates transfer stream ids, staging slots, gang ids and
	// checkpoint blob refs: tokens that must be unique among this daemon's
	// workers and in its store. They cross the wire in a variable-width
	// encoding, so a per-daemon sequence keeps a fresh testbed's virtual
	// time independent of what the process ran before.
	ids atomic.Uint64

	mu       sync.Mutex
	workers  map[int]*workerHandle
	byMember map[string]*workerHandle // member identifier string -> handle
	nextID   int
	closed   bool
	// Session worker-id blocks: each named session gets a disjoint id
	// range (slot * sessionIDBlock), so everything keyed on the worker id
	// — pool port names, the per-id peer/loopback port block, checkpoint
	// refs — is namespaced per session. The default session ("") keeps the
	// plain nextID sequence, so single-tenant daemons number workers
	// exactly as before.
	sessionSlots map[string]int // session -> block slot (1-based)
	sessionSeq   map[string]int // session -> ids handed out in its block

	// Checkpoint store: snapshot blobs streamed by worker proxies over the
	// daemon's own peer listener (or deposited directly by the coupler's
	// hairpin path) land here, keyed by blob ref. The store is in-memory;
	// persistence is the manifest's job (Manifest.Save inlines the blobs).
	// The listener opens lazily on the first checkpoint: its overlay port
	// registration is real virtual traffic, and sessions that never
	// checkpoint must stay timing-identical to pre-checkpoint builds.
	// ckptClosed is set (under ckptMu) by Close before it waits on wg, so
	// a racing first checkpoint cannot open the listener after teardown
	// already passed it by.
	ckptMu     sync.Mutex
	ckptLis    *smartsockets.Listener
	ckptClosed bool
	ckptBlobs  map[uint64][]byte
	// ckptOwner tags store entries with the session that made them, so an
	// evicted or detached session's blobs can be trimmed in one sweep
	// without touching other tenants' checkpoints.
	ckptOwner map[uint64]string

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
	sendPort *ipl.SendPort
	recvPort *ipl.ReceivePort      // the worker's response port; closed with the worker
	pending  map[uint64]*vnet.Conn // request id -> coupler conn awaiting reply
	dead     bool
	// Capacity accounting: the nodes this worker committed on its
	// resource, released exactly once (released guards the stop/fail/
	// error-path races) when the worker goes away.
	capNodes int
	released bool

	ready chan ipl.Identifier
	// sockets channel: the connection the worker dialled back on, instead
	// of IPL state.
	socketConn *vnet.Conn
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
	// from the worker id — pool identities, peer-plane ports, checkpoint
	// refs — and scope capacity accounting, so concurrent sessions on one
	// daemon cannot collide. Simulations stamp it automatically from their
	// own session label; only direct Daemon users set it by hand.
	Session string
}

// NewDaemon starts the daemon for a deployment: an IPL registry and the
// daemon's own pool instance on the local host, plus the loopback RPC
// listener the coupler connects to.
func NewDaemon(dep *deploy.Deployment, pool string) (*Daemon, error) {
	local := dep.LocalHost()
	reg, err := ipl.NewRegistry(dep.Net, local, local)
	if err != nil {
		return nil, fmt.Errorf("core: daemon registry: %w", err)
	}
	env := &Env{Net: dep.Net, Deployment: dep, Pool: pool, Registry: reg.Addr()}
	d := &Daemon{
		env: env, deployment: dep, registry: reg,
		workers:      make(map[int]*workerHandle),
		byMember:     make(map[string]*workerHandle),
		sessionSlots: make(map[string]int),
		sessionSeq:   make(map[string]int),
		ReadyTimeout: 30 * time.Second,
	}

	dep.Catalog.Register("amuse-worker", func(ctx *gat.Context) error {
		return workerMain(env, ctx)
	})
	dep.Catalog.Register("amuse-socket-worker", func(ctx *gat.Context) error {
		return socketWorkerMain(env, ctx)
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

	l, err := dep.Net.Listen(local, DaemonPort)
	if err != nil {
		ib.End()
		reg.Close()
		return nil, fmt.Errorf("core: daemon listener: %w", err)
	}
	d.listener = l
	d.ckptBlobs = make(map[uint64][]byte)
	d.ckptOwner = make(map[uint64]string)
	d.wg.Add(2)
	go d.acceptLoop()
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
	d.listener.Close()
	d.ckptMu.Lock()
	d.ckptClosed = true
	ckptLis := d.ckptLis
	d.ckptMu.Unlock()
	if ckptLis != nil {
		ckptLis.Close()
	}
	d.ibis.End()
	d.registry.Close()
	d.wg.Wait()
}

// checkpointLoop accepts snapshot streams on the daemon's peer listener:
// a transfer-framed blob is filed in the store and acknowledged at its
// virtual arrival time; probe frames get the factory's responder (the
// store's listener answers goodput probes like any worker's).
func (d *Daemon) checkpointLoop(lis *smartsockets.Listener) {
	defer d.wg.Done()
	for {
		conn, err := lis.Accept()
		if err != nil {
			return
		}
		d.wg.Add(1)
		go func() {
			defer d.wg.Done()
			conn.SetClass("peer")
			msg, err := conn.Recv()
			if err != nil {
				conn.Close()
				return
			}
			if smartsockets.IsProbeFrame(msg.Data) {
				d.ibis.Factory().ServeProbeConn(conn, msg.Data, msg.Arrival)
				return
			}
			defer conn.Close()
			id, blob, abort, err := kernel.UnmarshalTransfer(msg.Data)
			if err != nil || abort {
				return
			}
			// blob aliases the stream's message, which became this
			// receiver's alone when it was sent: the store keeps it as it is.
			d.StoreCheckpoint(id, blob)
			conn.Send(kernel.AppendTransferAck(nil, id), msg.Arrival)
		}()
	}
}

// CheckpointPeerAddr returns the address worker proxies stream checkpoint
// blobs to — the daemon's own peer listener on the overlay — opening the
// listener on first use. ok is false if the daemon is closed or the
// listener cannot open (callers fall back to the RPC-plane pull).
func (d *Daemon) CheckpointPeerAddr() (smartsockets.Address, bool) {
	d.ckptMu.Lock()
	defer d.ckptMu.Unlock()
	// The closed flag and the lazy open are serialized by ckptMu: either
	// Close set the flag first (no listener opens), or the listener and
	// its wg.Add exist before Close reaches them (clean teardown).
	if d.ckptClosed {
		return smartsockets.Address{}, false
	}
	if d.ckptLis == nil {
		lis, err := d.ibis.ListenPeer()
		if err != nil {
			return smartsockets.Address{}, false
		}
		d.ckptLis = lis
		d.wg.Add(1)
		go d.checkpointLoop(lis)
	}
	return ipl.PeerAddr(d.ibis.Identifier()), true
}

// StoreCheckpoint files a snapshot blob under a ref (the coupler's
// hairpin path deposits directly; the peer path arrives via
// checkpointLoop). The blob must not be mutated afterwards.
func (d *Daemon) StoreCheckpoint(id uint64, blob []byte) {
	d.ckptMu.Lock()
	d.ckptBlobs[id] = blob
	d.ckptMu.Unlock()
}

// CheckpointBlob returns a stored snapshot blob.
func (d *Daemon) CheckpointBlob(id uint64) ([]byte, bool) {
	d.ckptMu.Lock()
	defer d.ckptMu.Unlock()
	b, ok := d.ckptBlobs[id]
	return b, ok
}

// DropCheckpoint releases a stored blob (manifests inline the bytes, so
// long sessions can trim the store after each checkpoint).
func (d *Daemon) DropCheckpoint(id uint64) {
	d.ckptMu.Lock()
	delete(d.ckptBlobs, id)
	delete(d.ckptOwner, id)
	d.ckptMu.Unlock()
}

// TagCheckpoint records which session owns a stored blob so the control
// plane can trim an evicted session's checkpoints in one sweep.
func (d *Daemon) TagCheckpoint(id uint64, session string) {
	if session == "" {
		return
	}
	d.ckptMu.Lock()
	d.ckptOwner[id] = session
	d.ckptMu.Unlock()
}

// DropSessionCheckpoints releases every blob the session owns.
func (d *Daemon) DropSessionCheckpoints(session string) {
	if session == "" {
		return
	}
	d.ckptMu.Lock()
	for id, owner := range d.ckptOwner {
		if owner == session {
			delete(d.ckptBlobs, id)
			delete(d.ckptOwner, id)
		}
	}
	d.ckptMu.Unlock()
}

// WorkerAlive reports whether a worker id is known and not dead — the
// gang recovery path uses it to find which rank to restart.
func (d *Daemon) WorkerAlive(id int) bool {
	d.mu.Lock()
	wh := d.workers[id]
	d.mu.Unlock()
	if wh == nil {
		return false
	}
	wh.mu.Lock()
	defer wh.mu.Unlock()
	return !wh.dead
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

// acceptLoop serves coupler connections on the loopback socket.
func (d *Daemon) acceptLoop() {
	defer d.wg.Done()
	for {
		conn, err := d.listener.Accept()
		if err != nil {
			return
		}
		conn.SetClass("loopback")
		d.wg.Add(1)
		go d.serveCoupler(conn)
	}
}

// serveCoupler relays one coupler channel's requests to worker proxies.
func (d *Daemon) serveCoupler(conn *vnet.Conn) {
	defer d.wg.Done()
	for {
		msg, err := conn.Recv()
		if err != nil {
			return
		}
		var req request
		if err := kernel.UnmarshalRequest(msg.Data, &req); err != nil {
			continue
		}
		d.mu.Lock()
		wh := d.workers[req.Worker]
		d.mu.Unlock()
		if wh == nil {
			// A routing failure is a transport fault, not a worker death:
			// no worker with that id exists on this daemon.
			d.reply(conn, req.ID, msg.Arrival, kernel.CodeTransport, fmt.Sprintf("core: no worker %d", req.Worker))
			continue
		}
		wh.mu.Lock()
		dead, sp := wh.dead, wh.sendPort
		if !dead && sp != nil {
			wh.pending[req.ID] = conn
		}
		wh.mu.Unlock()
		if dead || sp == nil {
			d.reply(conn, req.ID, msg.Arrival, kernel.CodeWorkerDied, ErrWorkerDied.Error())
			continue
		}
		if err := sp.Write(msg.Data, msg.Arrival); err != nil {
			// The proxy closed its request port: the worker is gone, and
			// the daemon knows it before the pool's Died event says so.
			// Failing it here (this call included) keeps WorkerAlive in
			// step with what callers have already been told.
			d.failWorker(wh)
		}
	}
}

// reply sends a coded error response back to a coupler connection.
func (d *Daemon) reply(conn *vnet.Conn, id uint64, at time.Duration, code kernel.Code, errStr string) {
	conn.Send(kernel.AppendResponse(nil, &response{ID: id, Code: code, Err: errStr, DoneAt: at}), at)
}

// onResponse handles a proxy's response (or ready announcement).
func (d *Daemon) onResponse(wh *workerHandle, rm ipl.ReadMessage) {
	var resp response
	if err := kernel.UnmarshalResponse(rm.Data, &resp); err != nil {
		return
	}
	if resp.ID == 0 { // ready marker
		select {
		case wh.ready <- rm.From:
		default:
		}
		return
	}
	wh.mu.Lock()
	conn := wh.pending[resp.ID]
	delete(wh.pending, resp.ID)
	wh.mu.Unlock()
	if conn != nil {
		conn.Send(rm.Data, rm.Arrival)
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
	wh.pending = make(map[uint64]*vnet.Conn)
	wh.mu.Unlock()
	wh.closePorts()
	for id, conn := range pend {
		d.reply(conn, id, 0, kernel.CodeWorkerDied, ErrWorkerDied.Error())
	}
	d.releaseWorkerCapacity(wh)
	d.mu.Lock()
	hook := d.OnWorkerDied
	d.mu.Unlock()
	if newly && hook != nil {
		hook(wh.id)
	}
}

// nextWorkerIDLocked allocates a worker id. The default session ("") uses
// the plain counter; a named session draws from its own disjoint id block
// so its pool port names, peer-plane ports and checkpoint refs never
// collide with another tenant's. Caller holds d.mu.
func (d *Daemon) nextWorkerIDLocked(session string) (int, error) {
	if session == "" {
		d.nextID++
		return d.nextID, nil
	}
	slot, ok := d.sessionSlots[session]
	if !ok {
		slot = len(d.sessionSlots) + 1
		d.sessionSlots[session] = slot
	}
	seq := d.sessionSeq[session] + 1
	if seq >= sessionIDBlock {
		return 0, fmt.Errorf("core: session %q exhausted its %d-worker id block", session, sessionIDBlock-1)
	}
	d.sessionSeq[session] = seq
	return slot*sessionIDBlock + seq, nil
}

// releaseWorkerCapacity returns a worker's committed nodes to the ledger,
// exactly once across the stop/fail/start-error races.
func (d *Daemon) releaseWorkerCapacity(wh *workerHandle) {
	wh.mu.Lock()
	done := wh.released || wh.capNodes == 0
	wh.released = true
	nodes := wh.capNodes
	wh.mu.Unlock()
	if done {
		return
	}
	d.deployment.ReleaseNodes(wh.spec.Resource, wh.spec.Session, nodes)
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
	return d.startWorker(ctx, spec, 0, 1)
}

// StartGang launches the spec.Workers rank workers of one gang and
// returns their ids in rank order. All ranks are co-located on one
// resource (selected once if the spec leaves it open) so the gang's halo
// traffic rides the site's internal links; the jobs are submitted
// concurrently. On any failure the already-started ranks are stopped. The
// ranks come back wired to the pool but not yet to each other — the
// coupler's gang_init (sent per rank over the ordinary channel) completes
// the link wiring.
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
	ids := make([]int, k)
	errs := make([]error, k)
	var wg sync.WaitGroup
	for r := 0; r < k; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			ids[r], errs[r] = d.startWorker(ctx, spec, r, k)
		}(r)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		for _, id := range ids {
			if id != 0 {
				d.StopWorker(id)
			}
		}
		return nil, fmt.Errorf("core: gang start: %w", err)
	}
	return ids, nil
}

// startWorker is the shared launch path; rank/size place the worker in
// its gang (0/1 for solo workers).
func (d *Daemon) startWorker(ctx context.Context, spec WorkerSpec, rank, size int) (int, error) {
	if ctx == nil {
		ctx = context.Background()
	}
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
			return 0, err
		}
		spec.Resource = resource
	}
	if _, err := d.deployment.Resource(resource); err != nil {
		return 0, err
	}

	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return 0, ErrChannelClosed
	}
	id, err := d.nextWorkerIDLocked(spec.Session)
	if err != nil {
		d.mu.Unlock()
		return 0, err
	}
	wh := &workerHandle{
		id: id, spec: spec,
		pending: make(map[uint64]*vnet.Conn),
		ready:   make(chan ipl.Identifier, 1),
	}
	d.workers[id] = wh
	d.mu.Unlock()

	// The worker's job occupies spec.Nodes nodes on the resource from
	// submission until stop/death; the ledger entry makes that occupancy
	// visible to other sessions' placement decisions. Released exactly
	// once — on any start failure below, on StopWorker, or when the pool
	// observes the death.
	d.deployment.CommitNodes(resource, spec.Session, spec.Nodes)
	wh.capNodes = spec.Nodes
	// A failed start is a stop: the job (if submitted) is canceled, the
	// response port closes, the id leaves the table, the nodes are freed.
	fail := func(err error) (int, error) {
		d.StopWorker(id)
		return 0, err
	}

	exe := "amuse-worker"
	if spec.Channel == ChannelSockets {
		exe = "amuse-socket-worker"
	}
	desc := gat.JobDescription{
		Executable: exe,
		Args:       workerJobArgs(spec.Kind, spec.Kernel, id, resource, rank, size),
		Nodes:      spec.Nodes,
	}

	// The way back is open before the job is submitted, so a start is a
	// wait on events — the worker reports in, or its job ends — never a
	// poll. Sockets channel: what AMUSE's own sockets channel does — the
	// script opens the server socket and hands the worker its port; the
	// worker dials back. Ibis channel: the response port.
	var dialled chan *vnet.Conn // stays nil, never ready, for an ibis worker
	if spec.Channel == ChannelSockets {
		l, err := d.deployment.Net.Listen(d.deployment.LocalHost(), socketWorkerPort(id))
		if err != nil {
			return fail(err)
		}
		defer l.Close()
		dialled = make(chan *vnet.Conn, 1)
		go func() {
			if conn, err := l.Accept(); err == nil {
				dialled <- conn
			}
		}()
	} else {
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

	select {
	case conn := <-dialled:
		conn.SetClass("loopback")
		wh.mu.Lock()
		wh.socketConn = conn
		wh.mu.Unlock()
		return id, nil
	case member := <-wh.ready:
		sp := d.ibis.CreateSendPort(ipl.OneToOne, reqPortName(id))
		if err := sp.Connect(member, reqPortName(id), 0); err != nil {
			sp.Close()
			return fail(fmt.Errorf("core: connect to worker %d: %w", id, err))
		}
		wh.mu.Lock()
		wh.member = member
		wh.sendPort = sp
		wh.mu.Unlock()
		d.mu.Lock()
		d.byMember[member.String()] = wh
		d.mu.Unlock()
		return id, nil
	case <-job.Done():
		err := job.Err()
		if err == nil {
			err = errors.New("core: worker job stopped before announcing")
		}
		return fail(fmt.Errorf("core: worker %d failed to start: %w", id, err))
	case <-ctx.Done():
		return fail(fmt.Errorf("core: worker %d start: %w", id, ctx.Err()))
	case <-time.After(d.ReadyTimeout): // watchdog: a job that runs but never reports in becomes a start error
		return fail(fmt.Errorf("core: worker %d did not announce within %v", id, d.ReadyTimeout))
	}
}

// StopWorker shuts one worker down gracefully (its ports close, the job
// finishes) and forgets it: the id leaves the worker table.
func (d *Daemon) StopWorker(id int) {
	d.mu.Lock()
	wh := d.workers[id]
	delete(d.workers, id)
	d.mu.Unlock()
	if wh == nil {
		return
	}
	wh.mu.Lock()
	job, member := wh.job, wh.member
	wh.dead = true
	wh.mu.Unlock()
	d.mu.Lock()
	delete(d.byMember, member.String())
	d.mu.Unlock()
	wh.closePorts()
	if job != nil {
		job.Cancel() // the proxy observes Cancel and tears itself down
	}
	d.releaseWorkerCapacity(wh)
}

// KillWorker abruptly cancels a worker's job (the scheduler-kill fault of
// §5); the pool observes a death. Fault injection: tests and benchmarks only.
func (d *Daemon) KillWorker(id int) {
	d.mu.Lock()
	wh := d.workers[id]
	d.mu.Unlock()
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

// WorkerPeerAddr resolves an ibis worker's peer-stream address — where
// other workers dial it for direct worker-to-worker state transfers —
// from its pool identity. It reports false for non-ibis workers, workers
// still starting, and dead workers.
func (d *Daemon) WorkerPeerAddr(id int) (smartsockets.Address, bool) {
	d.mu.Lock()
	wh := d.workers[id]
	d.mu.Unlock()
	if wh == nil {
		return smartsockets.Address{}, false
	}
	wh.mu.Lock()
	defer wh.mu.Unlock()
	if wh.dead || wh.member.Host == "" {
		return smartsockets.Address{}, false
	}
	return ipl.PeerAddr(wh.member), true
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

// workerSocketConn returns the connection the sockets-channel worker that
// StartWorker just started dialled back on.
func (d *Daemon) workerSocketConn(id int) *vnet.Conn {
	d.mu.Lock()
	wh := d.workers[id]
	d.mu.Unlock()
	wh.mu.Lock()
	defer wh.mu.Unlock()
	return wh.socketConn
}
