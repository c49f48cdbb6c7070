package core

import (
	"fmt"
	"sync"
	"time"

	"jungle/internal/core/kernel"
	"jungle/internal/fifo"
	"jungle/internal/vnet"
)

// completer receives the outcome of one started call, exactly once: a
// decoded response plus its coupler-side virtual arrival time, or a
// transport-level error. It runs on a channel's goroutine and must not
// block. A model's Call is its own completer: starting it allocates nothing.
type completer interface {
	complete(resp response, arrival time.Duration, err error)
}

// completion is a function as a completer: what a gang's merges use.
type completion func(resp response, arrival time.Duration, err error)

func (f completion) complete(resp response, arrival time.Duration, err error) { f(resp, arrival, err) }

// channel moves RPC round trips between the coupler and one worker. The
// three implementations mirror AMUSE's channels: "mpi" (in-process, the
// default), "sockets" (loopback connection to a local worker process) and
// "ibis" (via the daemon over IPL to a remote resource — this paper's
// addition).
//
// The interface is asynchronous: start issues a call and returns
// immediately; the outcome is delivered to the completion later. Calls
// started from one goroutine are delivered to the worker in start order
// (the worker itself is single-threaded), which is what lets the coupler
// pipeline many calls onto one slow wide-area link and pay its latency
// once instead of once per call.
type channel interface {
	// start issues one call without waiting and later delivers the
	// outcome to done (exactly once, possibly before start returns if the
	// channel is already closed).
	start(req request, done completer)
	close() error
}

// Channel names.
const (
	ChannelMPI     = "mpi"
	ChannelSockets = "sockets"
	ChannelIbis    = "ibis"
)

// localChannel calls the service in-process. AMUSE's MPI channel costs a
// small per-message latency; calls are served by one goroutine in FIFO
// order, like a single-threaded worker behind a message queue.
type localChannel struct {
	svc     service
	latency time.Duration
	obs     *chanObs
	queue   fifo.Queue[localSubmission]
	stopped chan struct{}
}

type localSubmission struct {
	req  request
	done completer
}

// mpiMessageLatency is the per-call cost of the local MPI channel.
const mpiMessageLatency = 5 * time.Microsecond

func newLocalChannel(svc service, obs *chanObs) *localChannel {
	c := &localChannel{svc: svc, latency: mpiMessageLatency, obs: obs, stopped: make(chan struct{})}
	go c.serve()
	return c
}

func (c *localChannel) start(req request, done completer) {
	c.obs.issued()
	if !c.queue.Push(localSubmission{req: req, done: done}) {
		c.obs.deliver(pendingCall{done, req.Method, req.SentAt}, response{}, 0, ErrChannelClosed)
	}
}

// serve is the worker loop: pop one submission, dispatch, deliver. Once
// the channel is closed, what is still queued fails instead of running.
func (c *localChannel) serve() {
	defer close(c.stopped)
	for {
		sub, ok := c.queue.Pop()
		if !ok {
			c.svc.Close()
			return
		}
		p := pendingCall{sub.done, sub.req.Method, sub.req.SentAt}
		if c.queue.Closed() {
			c.obs.deliver(p, response{}, 0, ErrChannelClosed)
			continue
		}
		result, doneAt, err := c.svc.Dispatch(sub.req.Method, sub.req.Args, sub.req.SentAt+c.latency)
		c.obs.deliver(p, kernel.LocalResponse(sub.req.ID, result, doneAt, err), doneAt+c.latency, nil)
	}
}

func (c *localChannel) close() error {
	if c.queue.Close() {
		// Wait for the serve loop to finish its in-flight dispatch, fail
		// anything still queued and release the service.
		<-c.stopped
	}
	return nil
}

// connChannel matches responses to started calls by ID. The sockets
// channel frames its requests over a vnet connection straight to the
// worker; the coupler side of the ibis channel (Daemon.ibisChannel) hands
// them to the local daemon's relay in line, and the daemon hands back the
// responses it decodes (answer).
type connChannel struct {
	conn   *vnet.Conn // sockets: the connection to the worker
	daemon *Daemon    // ibis: the daemon that relays to the worker
	obs    *chanObs

	mu      sync.Mutex
	pending map[uint64]pendingCall
	closed  bool
	readErr error
}

// pendingCall is a started call until its channel delivers the outcome.
type pendingCall struct {
	done   completer
	method string
	sentAt time.Duration
}

func newConnChannel(conn *vnet.Conn, obs *chanObs) *connChannel {
	c := &connChannel{conn: conn, obs: obs, pending: make(map[uint64]pendingCall)}
	go c.readLoop()
	return c
}

func (c *connChannel) readLoop() {
	for {
		msg, err := c.conn.Recv()
		if err != nil {
			c.fail(ErrWorkerDied)
			return
		}
		var resp response
		if err := kernel.UnmarshalResponse(msg.Data, &resp); err != nil {
			// An undecodable frame cannot be matched to its waiter, and
			// everything behind it on the stream is suspect: fail the
			// channel (and every pending call) rather than dropping the
			// frame and leaking the waiter forever.
			c.fail(fmt.Errorf("%w: sockets channel received undecodable response frame: %v",
				kernel.ErrTransport, err))
			c.conn.Close()
			return
		}
		c.answer(resp.ID, resp, msg.Arrival, nil)
	}
}

// answer delivers the outcome of call id — a response that reached the
// coupler at virtual time arrival, or err — if the channel still has the
// call: fail may have taken it first.
func (c *connChannel) answer(id uint64, resp response, arrival time.Duration, err error) {
	c.mu.Lock()
	p, ok := c.pending[id]
	delete(c.pending, id)
	c.mu.Unlock()
	if ok {
		c.obs.deliver(p, resp, arrival, err)
	}
}

// fail marks the channel dead and delivers err to every pending call.
func (c *connChannel) fail(err error) {
	c.mu.Lock()
	c.closed = true
	if c.readErr == nil {
		c.readErr = err
	}
	err = c.readErr
	pend := c.pending
	c.pending = make(map[uint64]pendingCall)
	c.mu.Unlock()
	for _, p := range pend {
		c.obs.deliver(p, response{}, 0, err)
	}
}

func (c *connChannel) start(req request, done completer) {
	c.obs.issued()
	p := pendingCall{done, req.Method, req.SentAt}
	c.mu.Lock()
	if c.closed {
		err := c.readErr // fail set it
		c.mu.Unlock()
		c.obs.deliver(p, response{}, 0, err)
		return
	}
	c.pending[req.ID] = p
	c.mu.Unlock()

	if c.daemon != nil {
		c.daemon.relay(c, req)
		return
	}
	if _, err := c.conn.Send(req.Frame(), req.SentAt); err != nil {
		c.answer(req.ID, response{}, 0, fmt.Errorf("%w: sockets channel send: %v", kernel.ErrTransport, err))
	}
}

func (c *connChannel) close() error {
	c.fail(ErrChannelClosed)
	if c.conn == nil {
		return nil
	}
	return c.conn.Close()
}

// serveConn is the worker-process side of the sockets channel: read
// requests, dispatch sequentially, reply, until the connection closes.
// Pipelined requests execute in arrival order. An undecodable request is
// answered as a transport fault, or closes the connection if it has no ID.
func serveConn(conn *vnet.Conn, svc service) {
	for {
		msg, err := conn.Recv()
		if err != nil {
			return
		}
		var req request
		result, doneAt, err := kernel.Reply{}, msg.Arrival, kernel.UnmarshalRequest(msg.Data, &req)
		switch {
		case err != nil && req.ID == 0:
			conn.Close()
			return
		case err != nil:
			err = fmt.Errorf("%w: worker received an undecodable request: %v", kernel.ErrTransport, err)
		default:
			// The result arrives with the response header's room in front of
			// it: the frame that answers is the buffer the service encoded into.
			result, doneAt, err = svc.Dispatch(req.Method, req.Args, msg.Arrival)
		}
		if _, err := conn.Send(kernel.FrameResponse(req.ID, result, doneAt, err), doneAt); err != nil {
			return
		}
	}
}
