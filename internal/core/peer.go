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
	"jungle/internal/vnet"
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

// testStripeFault, when set, kills the numbered stripe connection right
// after dialing — the fault-injection hook for "one stripe of a striped
// transfer died". Set only from tests, before workers start.
var testStripeFault func(index int) bool

// testStripeCorrupt, when set, may replace the bytes of the numbered
// stripe just before sending (after the manifest digests were computed) —
// the fault-injection hook for the receiver's digest verification.
var testStripeCorrupt func(index int, data []byte) []byte

// stripeMin is the smallest stripe worth a dedicated connection: the
// effective stream count is payload/stripeMin, clamped to the offer's
// Stripes limit, so small payloads always take the classic single stream
// (and a build with striping disabled is wire-identical to one without it).
const stripeMin = 64 << 10

// peerDelivery is one parked transfer stream (or its abort).
type peerDelivery struct {
	state   []byte
	arrival time.Duration
	err     error
}

// peerMailbox parks transfer streams until the matching accept_state
// arrives; streams and accepts race freely, whichever comes first waits
// for the other.
type peerMailbox struct {
	mu      sync.Mutex
	box     map[uint64]peerDelivery
	waiters map[uint64]chan peerDelivery
	// consumed marks ids whose accept already returned (successfully or
	// by timeout): late streams and redundant aborts for them are dropped
	// instead of parked forever — accepts are never retried, so a
	// consumed id can receive nothing anyone will wait for.
	consumed map[uint64]bool
	closed   bool
}

func newPeerMailbox() *peerMailbox {
	return &peerMailbox{
		box:      make(map[uint64]peerDelivery),
		waiters:  make(map[uint64]chan peerDelivery),
		consumed: make(map[uint64]bool),
	}
}

// deposit hands a delivery to a waiting accept, or parks it.
func (mb *peerMailbox) deposit(id uint64, d peerDelivery) {
	mb.mu.Lock()
	if mb.closed || mb.consumed[id] {
		mb.mu.Unlock()
		return
	}
	if ch, ok := mb.waiters[id]; ok {
		delete(mb.waiters, id)
		mb.consumed[id] = true
		mb.mu.Unlock()
		ch <- d
		return
	}
	mb.box[id] = d
	mb.mu.Unlock()
}

// wait blocks (in real time, up to timeout) for the delivery with the
// given id.
func (mb *peerMailbox) wait(id uint64, timeout time.Duration) (peerDelivery, error) {
	mb.mu.Lock()
	if d, ok := mb.box[id]; ok {
		delete(mb.box, id)
		mb.consumed[id] = true
		mb.mu.Unlock()
		return d, nil
	}
	if mb.closed {
		mb.mu.Unlock()
		return peerDelivery{}, fmt.Errorf("%w: peer plane closed", kernel.ErrTransport)
	}
	ch := make(chan peerDelivery, 1)
	mb.waiters[id] = ch
	mb.mu.Unlock()
	select {
	case d := <-ch:
		return d, nil
	case <-time.After(timeout): // watchdog: an accept whose stream and abort both got lost becomes ErrTransport
		mb.mu.Lock()
		delete(mb.waiters, id)
		mb.consumed[id] = true
		mb.mu.Unlock()
		return peerDelivery{}, fmt.Errorf("%w: transfer %d: no peer stream within %v",
			kernel.ErrTransport, id, timeout)
	}
}

// close fails every parked and future wait (worker teardown).
func (mb *peerMailbox) close() {
	mb.mu.Lock()
	mb.closed = true
	waiters := mb.waiters
	mb.waiters = make(map[uint64]chan peerDelivery)
	mb.box = make(map[uint64]peerDelivery)
	mb.mu.Unlock()
	for _, ch := range waiters {
		ch <- peerDelivery{err: fmt.Errorf("%w: peer plane closed", kernel.ErrTransport)}
	}
}

// peerPlane is the proxy-side endpoint of the direct data plane: the
// stream listener, the transfer-op handlers, and — for gang ranks — the
// gang link wiring (inbound hello connections park in the gang mailbox
// until gang_init claims them).
type peerPlane struct {
	ib      *ipl.Ibis
	mailbox *peerMailbox
	gangBox *gangMailbox
	stripes *stripeBox
	lis     *smartsockets.Listener
	wg      sync.WaitGroup

	mu   sync.Mutex
	gang *mpisim.Gang // wired by handleGangInit; closed by stop

	// ckptMu guards the ref-delta base: the raw bytes of the last snapshot
	// this worker streamed to the checkpoint store, and the blob ref it was
	// filed under. The next offer_checkpoint whose Base matches sends only
	// the XOR residue against these bytes (kernel.CompressStateRef).
	ckptMu   sync.Mutex
	ckptBase []byte
	ckptRef  uint64
}

// newPeerPlane opens the worker's peer listener and starts serving
// inbound streams.
func newPeerPlane(ib *ipl.Ibis) (*peerPlane, error) {
	lis, err := ib.ListenPeer()
	if err != nil {
		return nil, fmt.Errorf("core: peer listener: %w", err)
	}
	p := &peerPlane{ib: ib, mailbox: newPeerMailbox(), gangBox: newGangMailbox(), lis: lis}
	p.stripes = newStripeBox(p.finishStriped)
	p.wg.Add(1)
	go p.serve()
	return p, nil
}

// finishStriped deposits a verified, reassembled striped payload into the
// transfer mailbox and acknowledges on the manifest connection. A payload
// that fails to decode gets no ack, so the sender retries over a single
// stream (whose deposit then reports the decode error to the accept).
func (p *peerPlane) finishStriped(id uint64, payload []byte, arrival time.Duration, mconn *smartsockets.VirtualConn) {
	raw, err := kernel.MaybeDecompressState(payload, nil)
	if err != nil {
		mconn.Close()
		return
	}
	p.mailbox.deposit(id, peerDelivery{state: raw, arrival: arrival})
	mconn.Send(kernel.AppendTransferAck(nil, id), arrival)
	mconn.Close()
}

// serve accepts peer connections and routes them by their first frame's
// tag: a transfer stream carries one state (or abort) frame and is
// acknowledged at its virtual arrival time; a gang hello hands the whole
// connection over as a persistent rank link; manifest and stripe frames
// feed the striped-transfer reassembler; a goodput probe hands the
// connection to the factory's probe responder.
func (p *peerPlane) serve() {
	defer p.wg.Done()
	defer p.mailbox.close()
	defer p.gangBox.close()
	defer p.stripes.close()
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
			switch {
			case smartsockets.IsProbeFrame(msg.Data):
				// The peer listener doubles as the goodput-probe responder,
				// so probing a worker needs no extra registration.
				p.ib.Factory().ServeProbeConn(conn, msg.Data, msg.Arrival)
				return
			case kernel.IsGangHello(msg.Data):
				gangID, fromRank, err := kernel.UnmarshalGangHello(msg.Data)
				if err != nil {
					conn.Close()
					return
				}
				// Ownership transfers to the mailbox (and then the gang):
				// the connection stays open as a rank link.
				p.gangBox.deposit(gangKey{id: gangID, rank: fromRank}, conn)
				return
			case kernel.IsManifest(msg.Data):
				// Blocking: the box owns the connection until ack/teardown.
				p.stripes.manifest(conn, msg.Data, msg.Arrival)
				return
			case kernel.IsStripe(msg.Data):
				p.stripes.stripe(msg.Data, msg.Arrival)
				conn.Close()
				return
			}
			defer conn.Close()
			id, state, abort, err := kernel.UnmarshalTransfer(msg.Data)
			if err != nil {
				return
			}
			if abort {
				p.mailbox.deposit(id, peerDelivery{err: fmt.Errorf(
					"%w: transfer %d aborted by coupler", kernel.ErrTransport, id)})
				return
			}
			// state aliases msg.Data, which is private to this stream: no
			// copy needed before the loopback apply. Compressed payloads
			// (tagStateZ) are restored here, at the plane boundary — raw
			// frames pass through MaybeDecompressState untouched.
			raw, derr := kernel.MaybeDecompressState(state, nil)
			if derr != nil {
				p.mailbox.deposit(id, peerDelivery{err: fmt.Errorf(
					"%w: transfer %d: %v", kernel.ErrTransport, id, derr)})
				return
			}
			p.mailbox.deposit(id, peerDelivery{state: raw, arrival: msg.Arrival})
			conn.Send(kernel.AppendTransferAck(nil, id), msg.Arrival)
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

// gangMailbox parks inbound gang link connections until the local
// gang_init claims them; hellos and gang_init race freely.
type gangMailbox struct {
	mu      sync.Mutex
	box     map[gangKey]*smartsockets.VirtualConn
	waiters map[gangKey]chan *smartsockets.VirtualConn
	closed  bool
}

func newGangMailbox() *gangMailbox {
	return &gangMailbox{
		box:     make(map[gangKey]*smartsockets.VirtualConn),
		waiters: make(map[gangKey]chan *smartsockets.VirtualConn),
	}
}

// deposit hands a hello connection to a waiting gang_init, or parks it.
func (mb *gangMailbox) deposit(key gangKey, conn *smartsockets.VirtualConn) {
	mb.mu.Lock()
	if mb.closed {
		mb.mu.Unlock()
		conn.Close()
		return
	}
	if ch, ok := mb.waiters[key]; ok {
		delete(mb.waiters, key)
		mb.mu.Unlock()
		ch <- conn
		return
	}
	if old, dup := mb.box[key]; dup {
		old.Close() // a duplicate hello replaces the stale link
	}
	mb.box[key] = conn
	mb.mu.Unlock()
}

// wait blocks (in real time, up to timeout) for the hello connection with
// the given key.
func (mb *gangMailbox) wait(key gangKey, timeout time.Duration) (*smartsockets.VirtualConn, error) {
	mb.mu.Lock()
	if conn, ok := mb.box[key]; ok {
		delete(mb.box, key)
		mb.mu.Unlock()
		return conn, nil
	}
	if mb.closed {
		mb.mu.Unlock()
		return nil, fmt.Errorf("%w: peer plane closed", kernel.ErrTransport)
	}
	ch := make(chan *smartsockets.VirtualConn, 1)
	mb.waiters[key] = ch
	mb.mu.Unlock()
	select {
	case conn := <-ch:
		if conn == nil { // mailbox closed while waiting
			return nil, fmt.Errorf("%w: peer plane closed", kernel.ErrTransport)
		}
		return conn, nil
	case <-time.After(timeout): // watchdog: a gang link a peer rank never dialled becomes ErrTransport
		mb.mu.Lock()
		delete(mb.waiters, key)
		mb.mu.Unlock()
		// A deposit may have raced the timeout: it already removed the
		// waiter entry and put the connection into the buffered channel,
		// which nothing will ever read again. Drain it so the connection
		// is not stranded open for the worker's lifetime.
		select {
		case conn := <-ch:
			if conn != nil {
				conn.Close()
			}
		default:
		}
		return nil, fmt.Errorf("%w: gang %d: no link from rank %d within %v",
			kernel.ErrTransport, key.id, key.rank, timeout)
	}
}

// close parks no more connections and closes everything parked.
func (mb *gangMailbox) close() {
	mb.mu.Lock()
	mb.closed = true
	box := mb.box
	mb.box = make(map[gangKey]*smartsockets.VirtualConn)
	waiters := mb.waiters
	mb.waiters = make(map[gangKey]chan *smartsockets.VirtualConn)
	mb.mu.Unlock()
	for _, conn := range box {
		conn.Close()
	}
	for _, ch := range waiters {
		close(ch)
	}
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

// isGangMethod reports whether a request is the proxy-level gang wiring
// op.
func isGangMethod(method string) bool { return method == kernel.MethodGangInit }

// handleGangInit wires this rank's gang links: dial every higher rank's
// peer listener (sending the hello frame that names this gang and rank),
// await hello connections from every lower rank, assemble the
// communicator and install it in the service via kernel.Shardable. Runs
// in the proxy relay loop, so the setup call queued behind gang_init
// cannot reach the service before the gang exists.
func (p *peerPlane) handleGangInit(req *request, arrival time.Duration, svc service) *response {
	fail := func(code kernel.Code, err error) *response {
		return &response{ID: req.ID, Code: code, Err: err.Error(), DoneAt: arrival}
	}
	var a kernel.GangInitArgs
	if err := kernel.Decode(req.Args, &a); err != nil {
		return fail(kernel.CodeWorkerFault, err)
	}
	sh, ok := svc.(kernel.Shardable)
	if !ok {
		return fail(kernel.CodeWorkerFault, fmt.Errorf("core: service is not shardable"))
	}
	if a.Rank < 0 || a.Rank >= a.Size || len(a.Peers) != a.Size {
		return fail(kernel.CodeWorkerFault, fmt.Errorf("core: bad gang_init: rank %d size %d peers %d",
			a.Rank, a.Size, len(a.Peers)))
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
			return fail(kernel.CodeWorkerFault, err)
		}
		conn, err := p.ib.DialPeer(addr, arrival)
		if err != nil {
			cleanup()
			return fail(kernel.CodeTransport, fmt.Errorf("core: gang %d: rank %d unreachable: %w", a.ID, j, err))
		}
		conn.SetClass("peer")
		if err := conn.Send(kernel.AppendGangHello(nil, a.ID, a.Rank),
			maxDuration(arrival, conn.EstablishedAt())); err != nil {
			conn.Close()
			cleanup()
			return fail(kernel.CodeTransport, fmt.Errorf("core: gang %d: hello to rank %d: %w", a.ID, j, err))
		}
		links[j] = &peerLink{conn: conn}
	}
	// …and awaits hellos from every rank below it.
	for j := 0; j < a.Rank; j++ {
		conn, err := p.gangBox.wait(gangKey{id: a.ID, rank: j}, PeerAcceptTimeout)
		if err != nil {
			cleanup()
			return fail(kernel.CodeTransport, err)
		}
		links[j] = &peerLink{conn: conn}
	}
	g, err := mpisim.NewGang(a.Rank, a.Size, links)
	if err != nil {
		cleanup()
		return fail(kernel.CodeWorkerFault, err)
	}
	if err := sh.SetGang(g); err != nil {
		cleanup()
		return fail(kernel.CodeWorkerFault, err)
	}
	p.mu.Lock()
	p.gang = g
	p.mu.Unlock()
	return &response{ID: req.ID, DoneAt: arrival}
}

// isTransferMethod reports whether a request is a proxy-level transfer op.
func isTransferMethod(method string) bool {
	return method == kernel.MethodOfferState || method == kernel.MethodAcceptState ||
		method == kernel.MethodOfferCheckpoint
}

// handleTransfer executes one offer_state/accept_state against the model
// service behind loop. It returns the response to write back to the
// daemon and never forwards the op to the worker's dispatch table.
func (p *peerPlane) handleTransfer(req *request, arrival time.Duration, loop *vnet.Conn) *response {
	fail := func(code kernel.Code, err error) *response {
		return &response{ID: req.ID, Code: code, Err: err.Error(), DoneAt: arrival}
	}
	switch req.Method {
	case kernel.MethodOfferState:
		var a kernel.OfferStateArgs
		if err := kernel.Decode(req.Args, &a); err != nil {
			return fail(kernel.CodeWorkerFault, err)
		}
		return p.offer(req.ID, &a, arrival, loop)
	case kernel.MethodAcceptState:
		var a kernel.AcceptStateArgs
		if err := kernel.Decode(req.Args, &a); err != nil {
			return fail(kernel.CodeWorkerFault, err)
		}
		return p.accept(req.ID, &a, arrival, loop)
	case kernel.MethodOfferCheckpoint:
		var a kernel.OfferCheckpointArgs
		if err := kernel.Decode(req.Args, &a); err != nil {
			return fail(kernel.CodeWorkerFault, err)
		}
		return p.offerCheckpoint(req.ID, &a, arrival, loop)
	default:
		return fail(kernel.CodeTransport, fmt.Errorf("core: not a transfer op: %q", req.Method))
	}
}

// loopCall runs one synthesized RPC against the model service over the
// proxy's loopback connection. The relay loop is single-threaded, so the
// loopback never has more than one call in flight.
func loopCall(loop *vnet.Conn, id uint64, method string, args []byte, at time.Duration) (*response, error) {
	frame := kernel.AppendRequest(nil, &request{ID: id, Method: method, Args: args, SentAt: at})
	if _, err := loop.Send(frame, at); err != nil {
		return nil, err
	}
	reply, err := loop.Recv()
	if err != nil {
		return nil, err
	}
	resp := new(response)
	if err := kernel.UnmarshalResponse(reply.Data, resp); err != nil {
		return nil, err
	}
	resp.DoneAt = maxDuration(resp.DoneAt, reply.Arrival)
	return resp, nil
}

// offer reads the requested columns from the service and streams them to
// the peer, waiting for the receipt ack. Any failure on the peer path is
// a transport fault — the coupler uses the classification to fall back to
// its hairpin.
func (p *peerPlane) offer(reqID uint64, a *kernel.OfferStateArgs, arrival time.Duration, loop *vnet.Conn) *response {
	fail := func(code kernel.Code, err error) *response {
		return &response{ID: reqID, Code: code, Err: err.Error(), DoneAt: arrival}
	}
	stArgs := kernel.AppendStateRequest(nil, &kernel.StateRequest{Attrs: a.Attrs})
	got, err := loopCall(loop, reqID, "get_state", stArgs, arrival)
	if err != nil {
		return fail(kernel.CodeTransport, fmt.Errorf("core: offer %d: read state: %w", a.ID, err))
	}
	if got.Code != kernel.CodeOK {
		return &response{ID: reqID, Code: got.Code, Err: got.Err, DoneAt: got.DoneAt}
	}
	payload := got.Result
	if a.Codec != kernel.CodecRaw {
		payload = kernel.CompressState(payload)
	}
	report := kernel.TransferReport{Streams: 1, WireBytes: len(payload)}
	ackAt, code, err := p.sendPayload(a.Peer, a.ID, payload, got.DoneAt, a.Stripes, &report)
	if err != nil {
		return fail(code, fmt.Errorf("core: offer %d: %w", a.ID, err))
	}
	// The report rides the response only when the offer asked for the
	// bandwidth-aware plane: a default offer's response stays byte-equal to
	// a build without it (the coupler treats no report as single-stream).
	var result []byte
	if a.Stripes > 1 || a.Codec != kernel.CodecRaw {
		result = kernel.Encode(report)
	}
	return &response{ID: reqID, Result: result, DoneAt: ackAt}
}

// sendPayload delivers one encoded payload to a peer listener: striped
// across parallel bulk-class circuits when the payload is large enough and
// the offer allows it, with a fallback to the classic single stream (same
// transfer id) when the striped attempt fails for any reason — a killed
// stripe, a digest mismatch on the receiver, an unreachable circuit. The
// report records which shape actually delivered the bytes.
func (p *peerPlane) sendPayload(peer string, id uint64, payload []byte, at time.Duration, stripes int, report *kernel.TransferReport) (time.Duration, kernel.Code, error) {
	if n := stripeCount(len(payload), stripes); n > 1 {
		ackAt, err := p.streamStriped(peer, id, payload, at, n)
		if err == nil {
			report.Streams = n
			return ackAt, kernel.CodeOK, nil
		}
		report.StripeFallback, report.StripeErr = true, err.Error()
	}
	return p.streamToPeer(peer, id, payload, at)
}

// stripeCount returns the number of parallel streams for a payload: one
// stream per stripeMin bytes, clamped to the offer's limit. 0 or 1 means
// the classic single stream.
func stripeCount(size, max int) int {
	if max < 2 {
		return 1
	}
	n := size / stripeMin
	if n > max {
		n = max
	}
	if n < 1 {
		n = 1
	}
	return n
}

// streamStriped delivers one payload over n parallel bulk-class circuits
// plus a manifest connection, and waits for the receiver's ack on the
// manifest connection (sent only after every stripe verified). All stripes
// are sent at the same virtual time, so the modeled transfer overlaps n
// streams — the win when per-stream bandwidth, not path bandwidth, is the
// bottleneck. Any failure closes every connection (the receiver's watcher
// drops the partial set) and the caller retries single-stream.
func (p *peerPlane) streamStriped(peer string, id uint64, payload []byte, at time.Duration, n int) (time.Duration, error) {
	addr, err := smartsockets.ParseAddress(peer)
	if err != nil {
		return 0, err
	}
	f := p.ib.Factory()
	// Consult the per-peer goodput cache before committing bulk traffic:
	// the first striped transfer to a peer pays one probe exchange (and
	// feeds the per-link health view); later ones hit the cache until the
	// sample goes stale.
	if _, doneAt, perr := f.Goodput(addr, at); perr == nil && doneAt > at {
		at = doneAt
	}
	off := kernel.SplitStripes(len(payload), n)
	m := &kernel.StripeManifest{ID: id, Total: uint32(len(payload))}
	for i := 0; i < n; i++ {
		part := payload[off[i]:off[i+1]]
		m.Stripes = append(m.Stripes, kernel.StripeInfo{
			Offset: uint32(off[i]), Length: uint32(len(part)), Digest: kernel.Digest64(part),
		})
	}
	var conns []*smartsockets.VirtualConn
	abort := func() {
		for _, c := range conns {
			c.Close()
		}
	}
	// The manifest goes first: the receiver's cleanup watcher lives on this
	// connection, so a partial stripe set never outlives an aborted sender.
	mconn, err := f.ConnectClass(addr, at, "bulk")
	if err != nil {
		return 0, fmt.Errorf("peer %s unreachable: %w", peer, err)
	}
	conns = append(conns, mconn)
	mconn.SetClass("peer")
	if err := mconn.Send(kernel.AppendManifest(nil, m), maxDuration(at, mconn.EstablishedAt())); err != nil {
		abort()
		return 0, fmt.Errorf("manifest to %s: %w", peer, err)
	}
	for i := 0; i < n; i++ {
		conn, err := f.ConnectClass(addr, at, "bulk")
		if err != nil {
			abort()
			return 0, fmt.Errorf("stripe %d to %s: %w", i, peer, err)
		}
		conns = append(conns, conn)
		conn.SetClass("peer")
		if testStripeFault != nil && testStripeFault(i) {
			conn.Close() // injected fault: this stripe dies under the transfer
		}
		part := payload[off[i]:off[i+1]]
		if testStripeCorrupt != nil {
			part = testStripeCorrupt(i, part)
		}
		if err := conn.Send(kernel.AppendStripe(nil, id, i, part), maxDuration(at, conn.EstablishedAt())); err != nil {
			abort()
			return 0, fmt.Errorf("stripe %d to %s: %w", i, peer, err)
		}
	}
	ack, err := mconn.Recv()
	if err != nil {
		abort()
		return 0, fmt.Errorf("no striped ack from %s: %w", peer, err)
	}
	abort()
	if ackID, err := kernel.UnmarshalTransferAck(ack.Data); err != nil || ackID != id {
		return 0, fmt.Errorf("bad striped ack (id %d, err %v)", ackID, err)
	}
	return ack.Arrival, nil
}

// streamToPeer dials a peer listener and delivers one transfer-framed
// payload, waiting for the receipt ack. It returns the ack's virtual
// arrival time, or the failure's wire code.
func (p *peerPlane) streamToPeer(peer string, id uint64, payload []byte, at time.Duration) (time.Duration, kernel.Code, error) {
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
	frame := kernel.AppendTransfer(nil, id, payload)
	if err := conn.Send(frame, maxDuration(at, conn.EstablishedAt())); err != nil {
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

// offerCheckpoint snapshots the model service (a loopback "checkpoint"
// call, which by FIFO order runs after everything already queued) and
// streams the frame to the checkpoint store's peer listener. Any failure
// on the peer path is a transport fault — the coupler falls back to
// pulling the snapshot over the RPC plane.
func (p *peerPlane) offerCheckpoint(reqID uint64, a *kernel.OfferCheckpointArgs, arrival time.Duration, loop *vnet.Conn) *response {
	fail := func(code kernel.Code, err error) *response {
		return &response{ID: reqID, Code: code, Err: err.Error(), DoneAt: arrival}
	}
	got, err := loopCall(loop, reqID, kernel.MethodCheckpoint, nil, arrival)
	if err != nil {
		return fail(kernel.CodeTransport, fmt.Errorf("core: checkpoint %d: snapshot: %w", a.ID, err))
	}
	if got.Code != kernel.CodeOK {
		return &response{ID: reqID, Code: got.Code, Err: got.Err, DoneAt: got.DoneAt}
	}
	raw := got.Result
	payload := raw
	switch a.Codec {
	case kernel.CodecRefDelta:
		// Ref-delta pays off only against the exact bytes the store still
		// holds under a.Base; anything else (first checkpoint, a hairpinned
		// predecessor, a replaced worker) degrades to the in-frame delta.
		p.ckptMu.Lock()
		base, ref := p.ckptBase, p.ckptRef
		p.ckptMu.Unlock()
		if a.Base != 0 && ref == a.Base {
			payload = kernel.CompressStateRef(raw, base, a.Base)
		} else {
			payload = kernel.CompressState(raw)
		}
	case kernel.CodecDeltaFlate:
		payload = kernel.CompressState(raw)
	}
	report := kernel.TransferReport{Streams: 1, WireBytes: len(payload)}
	ackAt, code, err := p.sendPayload(a.Peer, a.ID, payload, got.DoneAt, a.Stripes, &report)
	if err != nil {
		return fail(code, fmt.Errorf("core: checkpoint %d: %w", a.ID, err))
	}
	if a.Codec == kernel.CodecRefDelta {
		// The store now holds this snapshot raw under a.ID: it is the next
		// checkpoint's ref-delta base.
		p.ckptMu.Lock()
		p.ckptBase = raw // the loopback reply is the proxy's alone
		p.ckptRef = a.ID
		p.ckptMu.Unlock()
	}
	// As for offer_state: the report is attached only when the offer asked
	// for striping or compression, keeping default streams byte-equal.
	var result []byte
	if a.Stripes > 1 || a.Codec != kernel.CodecRaw {
		result = kernel.Encode(report)
	}
	return &response{ID: reqID, Result: result, DoneAt: ackAt}
}

// accept waits for the announced stream and applies it to the service
// with the requested method.
func (p *peerPlane) accept(reqID uint64, a *kernel.AcceptStateArgs, arrival time.Duration, loop *vnet.Conn) *response {
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
	args := d.state
	if a.Slot != 0 {
		args = kernel.AppendStaged(nil, a.Slot, d.state)
	}
	resp, err := loopCall(loop, reqID, apply, args, maxDuration(arrival, d.arrival))
	if err != nil {
		return fail(fmt.Errorf("%w: accept %d: apply: %v", kernel.ErrTransport, a.ID, err))
	}
	resp.ID = reqID
	return resp
}

func maxDuration(a, b time.Duration) time.Duration {
	if a > b {
		return a
	}
	return b
}
