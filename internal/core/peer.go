package core

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"jungle/internal/core/kernel"
	"jungle/internal/ipl"
	"jungle/internal/mpisim"
	"jungle/internal/smartsockets"
	"jungle/internal/watchdog"
)

// The worker side of the direct data plane. Each ibis worker's proxy owns
// a peer listener on the SmartSockets overlay (ipl.PeerAddr of its pool
// identity): bulk state streamed by other workers lands here, and the
// proxy's offer_state/accept_state handlers move it between the stream
// and the model service over the local loopback — the coupler only ever
// orchestrates, its machine never carries the column bytes.

// PeerAcceptTimeout bounds, in real time, how long an accept_state waits
// for its transfer stream before failing with a transport error. The
// normal failure path never waits it out — a failed offer makes the
// daemon stream an abort marker — so it only fires when the abort path is
// unreachable too. A variable so fault tests can tighten it.
var PeerAcceptTimeout = 10 * time.Second

// testPeerStreamFault, when set, kills the peer stream connection right
// after dialing — the fault-injection hook for "the stream died
// mid-transfer". Set only from tests, before workers start.
var testPeerStreamFault func() bool

// peerDelivery is one parked transfer stream (or its abort): the state and
// the frame it arrived in, which it aliases.
type peerDelivery struct {
	state, frame []byte
	arrival      time.Duration
	err          error
}

// rendezvous parks values under a key until the matching wait claims them:
// deposits and waits race freely, whichever comes first waits for the
// other. The transfer mailbox (streams by transfer id, claimed by
// accept_state) and the gang mailbox (hello connections by gang and rank,
// claimed by gang_init) are both one.
type rendezvous[K comparable, V any] struct {
	// missing words the watchdog's error: what never arrived under a key.
	missing func(K) string
	// drop, when set, releases a value nobody will claim (closes a parked
	// connection).
	drop func(V)

	mu      sync.Mutex
	box     map[K]V
	waiters map[K]chan V
	// consumed marks keys whose wait already returned (with the value or by
	// timeout): late deposits for them are dropped instead of parked for the
	// worker's lifetime — waits are never retried and keys never reused, so
	// a consumed key can receive nothing anyone will wait for.
	consumed map[K]bool
	closed   bool
}

func newRendezvous[K comparable, V any](missing func(K) string, drop func(V)) *rendezvous[K, V] {
	return &rendezvous[K, V]{
		missing: missing, drop: drop,
		box: make(map[K]V), waiters: make(map[K]chan V), consumed: make(map[K]bool),
	}
}

var errPeerPlaneClosed = fmt.Errorf("%w: peer plane closed", kernel.ErrTransport)

func (r *rendezvous[K, V]) release(v V) {
	if r.drop != nil {
		r.drop(v)
	}
}

// deposit hands v to the wait parked under key, or parks it; a value
// already parked there is replaced (a duplicate hello supersedes the stale
// link).
func (r *rendezvous[K, V]) deposit(key K, v V) {
	r.mu.Lock()
	if r.closed || r.consumed[key] {
		r.mu.Unlock()
		r.release(v)
		return
	}
	if ch, ok := r.waiters[key]; ok {
		delete(r.waiters, key)
		r.consumed[key] = true
		// Sent under the lock (the channel is buffered and this is its only
		// send, so it cannot block): a wait whose watchdog fires now finds
		// the value when it drains, after taking the lock.
		ch <- v
		r.mu.Unlock()
		return
	}
	old, dup := r.box[key]
	r.box[key] = v
	r.mu.Unlock()
	if dup {
		r.release(old)
	}
}

// wait blocks (in real time, up to timeout) for the value deposited under
// key.
func (r *rendezvous[K, V]) wait(key K, timeout time.Duration) (V, error) {
	var zero V
	r.mu.Lock()
	if v, ok := r.box[key]; ok {
		delete(r.box, key)
		r.consumed[key] = true
		r.mu.Unlock()
		return v, nil
	}
	if r.closed {
		r.mu.Unlock()
		return zero, errPeerPlaneClosed
	}
	ch := make(chan V, 1)
	r.waiters[key] = ch
	r.mu.Unlock()
	t := watchdog.Start(timeout) // watchdog: a stream and its abort both lost, or a gang link a peer rank never dialled, becomes ErrTransport
	defer watchdog.Stop(t)
	select {
	case v, ok := <-ch:
		if !ok { // closed while waiting
			return zero, errPeerPlaneClosed
		}
		return v, nil
	case <-t.C:
		r.mu.Lock()
		delete(r.waiters, key)
		r.consumed[key] = true
		r.mu.Unlock()
		// A deposit (or close) may have raced the timeout: it took the
		// waiter entry and used the channel, which nothing will read again.
		// Drain it so a connection is not stranded open for the worker's
		// lifetime.
		select {
		case v, ok := <-ch:
			if ok {
				r.release(v)
			}
		default:
		}
		return zero, fmt.Errorf("%w: %s within %v", kernel.ErrTransport, r.missing(key), timeout)
	}
}

// close fails every parked and future wait and releases everything parked
// (worker teardown).
func (r *rendezvous[K, V]) close() {
	r.mu.Lock()
	r.closed = true
	box, waiters := r.box, r.waiters
	r.box, r.waiters = make(map[K]V), make(map[K]chan V)
	r.mu.Unlock()
	for _, v := range box {
		r.release(v)
	}
	for _, ch := range waiters {
		close(ch)
	}
}

// peerPlane is the proxy-side endpoint of the direct data plane: the
// stream listener, the transfer-op handlers, and — for gang ranks — the
// gang link wiring (inbound hello connections park in the gang mailbox
// until gang_init claims them).
type peerPlane struct {
	ib      *ipl.Ibis
	mailbox *rendezvous[uint64, peerDelivery]
	gangBox *rendezvous[gangKey, *smartsockets.VirtualConn]
	lis     *smartsockets.Listener
	wg      sync.WaitGroup

	mu   sync.Mutex
	gang *mpisim.Gang // wired by handleGangInit; closed by stop
}

// newPeerPlane opens the worker's peer listener and starts serving
// inbound streams.
func newPeerPlane(ib *ipl.Ibis) (*peerPlane, error) {
	lis, err := ib.ListenPeer()
	if err != nil {
		return nil, fmt.Errorf("core: peer listener: %w", err)
	}
	p := &peerPlane{ib: ib, lis: lis,
		mailbox: newRendezvous[uint64, peerDelivery](func(id uint64) string {
			return fmt.Sprintf("transfer %d: no peer stream", id)
		}, nil),
		gangBox: newRendezvous(func(k gangKey) string {
			return fmt.Sprintf("gang %d: no link from rank %d", k.id, k.rank)
		}, func(conn *smartsockets.VirtualConn) { conn.Close() }),
	}
	p.wg.Add(1)
	go p.serve()
	return p, nil
}

// serve accepts peer connections and routes them by their first frame's
// tag: a transfer stream carries one state (or abort) frame and is
// acknowledged at its virtual arrival time; a gang hello hands the whole
// connection over as a persistent rank link.
func (p *peerPlane) serve() {
	defer p.wg.Done()
	defer p.mailbox.close()
	defer p.gangBox.close()
	for {
		conn, err := p.lis.Accept()
		if err != nil {
			return
		}
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			conn.SetClass("peer")
			msg, err := conn.Recv()
			if err != nil {
				conn.Close()
				return
			}
			if kernel.IsGangHello(msg.Data) {
				gangID, fromRank, err := kernel.UnmarshalGangHello(msg.Data)
				if err != nil {
					conn.Close()
					return
				}
				// Ownership transfers to the mailbox (and then the gang):
				// the connection stays open as a rank link.
				p.gangBox.deposit(gangKey{id: gangID, rank: fromRank}, conn)
				return
			}
			id, state, abort, err := kernel.UnmarshalTransfer(msg.Data)
			if err == nil && !abort {
				conn.Send(kernel.AppendTransferAck(nil, id), msg.Arrival)
			}
			// The stream closes before its delivery goes on: a routed Close
			// returns once the offering side has closed too, which waits for
			// this side's, so a transfer the coupler saw end has no frame left.
			conn.Close()
			switch {
			case err != nil:
			case abort:
				p.mailbox.deposit(id, peerDelivery{err: fmt.Errorf(
					"%w: transfer %d aborted by coupler", kernel.ErrTransport, id)})
			default:
				// state aliases msg.Data, which is private to this stream: no
				// copy needed before the loopback apply.
				p.mailbox.deposit(id, peerDelivery{state: state, frame: msg.Data, arrival: msg.Arrival})
			}
		}()
	}
}

// stop closes the listener, tears down the gang links (the factory does
// not track direct peer connections, so a dead rank's links must be
// closed here for the surviving ranks' collectives — and this rank's own
// stuck dispatch — to unblock), and waits for stream handlers. The
// factory close in ib.End()/Kill() also closes the listener; stop makes
// teardown explicit on the clean path.
func (p *peerPlane) stop() {
	p.lis.Close()
	p.mu.Lock()
	g := p.gang
	p.mu.Unlock()
	if g != nil {
		g.Close()
	}
	p.wg.Wait()
}

// gangKey identifies one inbound gang link: which gang, which peer rank.
type gangKey struct {
	id   uint64
	rank int
}

// peerLink adapts a SmartSockets peer connection to mpisim.Link, so the
// gang collectives run over the same overlay plane as direct state
// transfers.
type peerLink struct {
	conn *smartsockets.VirtualConn
}

func (l *peerLink) Send(data []byte, sentAt time.Duration) error {
	return l.conn.Send(data, sentAt)
}

func (l *peerLink) Recv() ([]byte, time.Duration, error) {
	msg, err := l.conn.Recv()
	if err != nil {
		return nil, 0, err
	}
	return msg.Data, msg.Arrival, nil
}

func (l *peerLink) Close() error { return l.conn.Close() }

// handleGangInit admits a gang_init only on a gang rank whose job args
// (gi, nil solo) name its rank and size — the one gang check: SetGang
// only binds — then wires this rank's gang links: dial every higher
// rank's peer listener (sending the hello frame that names this gang and
// rank), await hello connections from every lower rank, assemble the
// communicator and install it in the service via kernel.Shardable. Runs
// in the proxy relay loop, so the setup call queued behind gang_init
// cannot reach the service before the gang exists.
func (p *peerPlane) handleGangInit(req *request, arrival time.Duration, svc service, gi *kernel.GangInfo) *response {
	var a kernel.GangInitArgs
	if err := kernel.Decode(req.Args, &a); err != nil {
		return failure(req.ID, arrival, kernel.CodeWorkerFault, err)
	}
	if gi == nil { // a gang rank's service is Shardable: workerMain refuses to start it otherwise
		return failure(req.ID, arrival, kernel.CodeWorkerFault, fmt.Errorf("core: SetGang on a solo worker"))
	}
	if a.Rank < 0 || a.Rank >= a.Size || len(a.Peers) != a.Size {
		return failure(req.ID, arrival, kernel.CodeWorkerFault, fmt.Errorf("core: bad gang_init: rank %d size %d peers %d",
			a.Rank, a.Size, len(a.Peers)))
	}
	if a.Rank != gi.Rank || a.Size != gi.Size {
		return failure(req.ID, arrival, kernel.CodeWorkerFault, fmt.Errorf("core: gang %d/%d does not match configured rank %d/%d",
			a.Rank, a.Size, gi.Rank, gi.Size))
	}
	links := make([]mpisim.Link, a.Size)
	cleanup := func() {
		for _, l := range links {
			if l != nil {
				l.Close()
			}
		}
	}
	// Lower ranks dial: this rank dials every rank above it…
	for j := a.Rank + 1; j < a.Size; j++ {
		addr, err := smartsockets.ParseAddress(a.Peers[j])
		if err != nil {
			cleanup()
			return failure(req.ID, arrival, kernel.CodeWorkerFault, err)
		}
		conn, err := p.ib.DialPeer(addr, arrival)
		if err != nil {
			cleanup()
			return failure(req.ID, arrival, kernel.CodeTransport, fmt.Errorf("core: gang %d: rank %d unreachable: %w", a.ID, j, err))
		}
		conn.SetClass("peer")
		if err := conn.Send(kernel.AppendGangHello(nil, a.ID, a.Rank),
			max(arrival, conn.EstablishedAt())); err != nil {
			conn.Close()
			cleanup()
			return failure(req.ID, arrival, kernel.CodeTransport, fmt.Errorf("core: gang %d: hello to rank %d: %w", a.ID, j, err))
		}
		links[j] = &peerLink{conn: conn}
	}
	// …and awaits hellos from every rank below it.
	for j := 0; j < a.Rank; j++ {
		conn, err := p.gangBox.wait(gangKey{id: a.ID, rank: j}, PeerAcceptTimeout)
		if err != nil {
			cleanup()
			return failure(req.ID, arrival, kernel.CodeTransport, err)
		}
		links[j] = &peerLink{conn: conn}
	}
	g, err := mpisim.NewGang(a.Rank, a.Size, links)
	if err != nil {
		cleanup()
		return failure(req.ID, arrival, kernel.CodeWorkerFault, err)
	}
	if err := svc.(kernel.Shardable).SetGang(g); err != nil {
		cleanup()
		return failure(req.ID, arrival, kernel.CodeWorkerFault, err)
	}
	p.mu.Lock()
	p.gang = g
	p.mu.Unlock()
	return &response{ID: req.ID, DoneAt: arrival}
}

// failure is the response that fails request id at virtual time at.
func failure(id uint64, at time.Duration, code kernel.Code, err error) *response {
	return &response{ID: id, Code: code, Err: err.Error(), DoneAt: at}
}

// isProxyMethod reports whether a request is one the proxy serves itself:
// gang wiring or a transfer op.
func isProxyMethod(method string) bool {
	switch method {
	case kernel.MethodGangInit, kernel.MethodOfferState, kernel.MethodAcceptState:
		return true
	}
	return false
}

// handle executes one proxy method against the model service behind loop
// (a rank of gang gi, nil solo) and returns the response to write back to
// the daemon.
func (p *peerPlane) handle(req *request, arrival time.Duration, loop *loopback, gi *kernel.GangInfo) *response {
	switch req.Method {
	case kernel.MethodGangInit:
		return p.handleGangInit(req, arrival, loop.svc, gi)
	case kernel.MethodOfferState:
		var a kernel.OfferStateArgs
		if err := kernel.Decode(req.Args, &a); err != nil {
			return failure(req.ID, arrival, kernel.CodeWorkerFault, err)
		}
		read := request{ID: req.ID, Method: "get_state", SentAt: arrival,
			Args: kernel.AppendStateRequest(nil, &kernel.StateRequest{Attrs: a.Attrs})}
		return p.offer(a.ID, a.Peer, read, loop)
	case kernel.MethodAcceptState:
		var a kernel.AcceptStateArgs
		if err := kernel.Decode(req.Args, &a); err != nil {
			return failure(req.ID, arrival, kernel.CodeWorkerFault, err)
		}
		return p.accept(req.ID, &a, arrival, loop)
	default:
		return failure(req.ID, arrival, kernel.CodeTransport, fmt.Errorf("core: not a transfer op: %q", req.Method))
	}
}

// offer runs read (an offer_state's get_state) on the service and streams
// the result to the peer as transfer id, waiting for the receipt ack. The
// answer is not copied into a transfer frame: its own frame is re-headed as
// one, in place. Any failure on the peer path is a transport fault — the
// coupler uses the classification to fall back to its hairpin.
func (p *peerPlane) offer(id uint64, peer string, read request, loop *loopback) *response {
	got, frame := loop.call(&read)
	if got.Code != kernel.CodeOK {
		return &response{ID: read.ID, Code: got.Code, Err: got.Err, DoneAt: got.DoneAt}
	}
	ackAt, code, err := p.streamToPeer(peer, id, kernel.TransferFromResponse(frame, len(got.Result), id), got.DoneAt)
	if err != nil {
		return failure(read.ID, read.SentAt, code, fmt.Errorf("core: offer %d: %w", id, err))
	}
	return &response{ID: read.ID, DoneAt: ackAt}
}

// streamToPeer dials a peer listener and delivers one transfer frame,
// waiting for the receipt ack. It returns the ack's virtual arrival time,
// or the failure's wire code.
func (p *peerPlane) streamToPeer(peer string, id uint64, frame []byte, at time.Duration) (time.Duration, kernel.Code, error) {
	addr, err := smartsockets.ParseAddress(peer)
	if err != nil {
		return 0, kernel.CodeWorkerFault, err
	}
	conn, err := p.ib.DialPeer(addr, at)
	if err != nil {
		return 0, kernel.CodeTransport, fmt.Errorf("peer %s unreachable: %w", peer, err)
	}
	defer conn.Close()
	conn.SetClass("peer")
	if testPeerStreamFault != nil && testPeerStreamFault() {
		conn.Close() // injected fault: the stream dies under the transfer
	}
	if err := conn.Send(frame, max(at, conn.EstablishedAt())); err != nil {
		return 0, kernel.CodeTransport, fmt.Errorf("stream to %s: %w", peer, err)
	}
	ack, err := conn.Recv()
	if err != nil {
		return 0, kernel.CodeTransport, fmt.Errorf("no ack from %s: %w", peer, err)
	}
	if ackID, err := kernel.UnmarshalTransferAck(ack.Data); err != nil || ackID != id {
		return 0, kernel.CodeTransport, fmt.Errorf("bad ack (id %d, err %v)", ackID, err)
	}
	return ack.Arrival, kernel.CodeOK, nil
}

// accept waits for the announced stream and applies it to the service
// with the requested method.
func (p *peerPlane) accept(reqID uint64, a *kernel.AcceptStateArgs, arrival time.Duration, loop *loopback) *response {
	fail := func(err error) *response {
		code := kernel.CodeTransport
		if !errors.Is(err, kernel.ErrTransport) {
			code = kernel.ClassifyErr(err)
		}
		return &response{ID: reqID, Code: code, Err: err.Error(), DoneAt: arrival}
	}
	d, err := p.mailbox.wait(a.ID, PeerAcceptTimeout)
	if err != nil {
		return fail(err)
	}
	if d.err != nil {
		return fail(d.err)
	}
	apply := a.Apply
	if apply == "" {
		apply = kernel.MethodApplyState
	}
	// The apply is dispatched in line and priced by its length, so its args
	// are the state where the stream delivered it.
	req := request{ID: reqID, Method: apply, Args: kernel.ApplyArgs(d.frame, d.state, a.Slot), SentAt: max(arrival, d.arrival)}
	resp, _ := loop.call(&req)
	// The service's Dispatch has returned: this proxy is the frame's last
	// reader (DESIGN.md § Buffer ownership, "Bulk frames are recycled").
	kernel.ReleaseFrame(d.frame)
	resp.ID = reqID
	return resp
}
