package core

import (
	"fmt"
	"sync"
	"time"

	"jungle/internal/core/kernel"
	"jungle/internal/fifo"
	"jungle/internal/vnet"
)

// completion receives the outcome of one started call, exactly once: a
// decoded response plus its coupler-side virtual arrival time, or a
// transport-level error. Completions are invoked from channel-internal
// goroutines and must not block.
type completion func(resp response, arrival time.Duration, err error)

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
	name() string
	// start issues one call without waiting and later delivers the
	// outcome to done (exactly once, possibly before start returns if the
	// channel is already closed).
	start(req request, done completion)
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
	done completion
}

// mpiMessageLatency is the per-call cost of the local MPI channel.
const mpiMessageLatency = 5 * time.Microsecond

func newLocalChannel(svc service, obs *chanObs) *localChannel {
	c := &localChannel{svc: svc, latency: mpiMessageLatency, obs: obs, stopped: make(chan struct{})}
	go c.serve()
	return c
}

func (c *localChannel) name() string { return ChannelMPI }

func (c *localChannel) start(req request, done completion) {
	done = c.obs.observe(req.Method, req.SentAt, done)
	if !c.queue.Push(localSubmission{req: req, done: done}) {
		done(response{}, 0, ErrChannelClosed)
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
		if c.queue.Closed() {
			sub.done(response{}, 0, ErrChannelClosed)
			continue
		}
		result, doneAt, err := c.svc.Dispatch(sub.req.Method, sub.req.Args, sub.req.SentAt+c.latency)
		resp := response{ID: sub.req.ID, Result: result.Bytes(), DoneAt: doneAt}
		if err != nil {
			resp.Code = kernel.ClassifyErr(err)
			resp.Err = err.Error()
		}
		sub.done(resp, doneAt+c.latency, nil)
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

// connChannel frames requests over a vnet connection and matches responses
// by ID; it serves both the sockets channel (conn straight to a worker) and
// the coupler side of the ibis channel (conn to the local daemon).
type connChannel struct {
	chName string
	conn   *vnet.Conn
	obs    *chanObs

	mu      sync.Mutex
	pending map[uint64]completion
	closed  bool
	readErr error
}

func newConnChannel(name string, conn *vnet.Conn, obs *chanObs) *connChannel {
	c := &connChannel{chName: name, conn: conn, obs: obs, pending: make(map[uint64]completion)}
	go c.readLoop()
	return c
}

func (c *connChannel) name() string { return c.chName }

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
			c.fail(fmt.Errorf("%w: %s channel received undecodable response frame: %v",
				kernel.ErrTransport, c.chName, err))
			c.conn.Close()
			return
		}
		c.mu.Lock()
		done := c.pending[resp.ID]
		delete(c.pending, resp.ID)
		c.mu.Unlock()
		if done != nil {
			done(resp, msg.Arrival, nil)
		}
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
	c.pending = make(map[uint64]completion)
	c.mu.Unlock()
	for _, done := range pend {
		done(response{}, 0, err)
	}
}

func (c *connChannel) start(req request, done completion) {
	done = c.obs.observe(req.Method, req.SentAt, done)
	c.mu.Lock()
	if c.closed {
		err := c.readErr
		c.mu.Unlock()
		if err == nil {
			err = ErrChannelClosed
		}
		done(response{}, 0, err)
		return
	}
	c.pending[req.ID] = done
	c.mu.Unlock()

	if _, sendErr := c.conn.Send(req.Frame(), req.SentAt); sendErr != nil {
		// The read loop may have raced us to the pending entry (it fails
		// everything when the conn dies); only deliver if we still own it.
		c.mu.Lock()
		cb, ok := c.pending[req.ID]
		delete(c.pending, req.ID)
		c.mu.Unlock()
		if ok && cb != nil {
			cb(response{}, 0, fmt.Errorf("%w: %s channel send: %v", kernel.ErrTransport, c.chName, sendErr))
		}
	}
}

func (c *connChannel) close() error {
	c.mu.Lock()
	already := c.closed
	c.closed = true
	if c.readErr == nil {
		c.readErr = ErrChannelClosed
	}
	err := c.readErr
	pend := c.pending
	c.pending = make(map[uint64]completion)
	c.mu.Unlock()
	for _, done := range pend {
		done(response{}, 0, err)
	}
	if !already {
		return c.conn.Close()
	}
	return nil
}

// serveConn is the worker-process side of a conn channel: read requests,
// dispatch sequentially, reply. Pipelined requests queue on the conn and
// execute in arrival order. It returns when the connection closes.
func serveConn(conn *vnet.Conn, svc service) {
	for {
		msg, err := conn.Recv()
		if err != nil {
			return
		}
		var req request
		if err := kernel.UnmarshalRequest(msg.Data, &req); err != nil {
			continue
		}
		// The result arrives with the response header's room in front of it:
		// the frame that answers is the buffer the service encoded into.
		result, doneAt, derr := svc.Dispatch(req.Method, req.Args, msg.Arrival)
		if _, err := conn.Send(kernel.FrameResponse(req.ID, result, doneAt, derr), doneAt); err != nil {
			return
		}
	}
}
