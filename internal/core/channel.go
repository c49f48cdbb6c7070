package core

import (
	"sync"
	"time"

	"jungle/internal/core/kernel"
	"jungle/internal/fifo"
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
// default), "sockets" (a local worker process) and "ibis" (via the daemon
// over IPL to a remote resource — this paper's addition). Each is a
// connChannel; a gang's channel fans calls out over one per rank.
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

// connChannel is the coupler's end of every channel: it matches outcomes to
// started calls by ID. A request leaves it one of two ways: in line to the
// local daemon's relay (ibis: Daemon.ibisChannel), which hands back the
// responses it decodes (answer), or onto a localWorker (mpi and sockets),
// which answers each call itself.
type connChannel struct {
	daemon *Daemon      // ibis: the daemon that relays to the worker
	worker *localWorker // mpi, sockets: the service behind its queue
	obs    *chanObs

	mu      sync.Mutex
	pending map[uint64]pendingCall
	err     error // set once the channel is dead: what fail delivered
}

// pendingCall is a started call until its channel delivers the outcome.
type pendingCall struct {
	done   completer
	method string
	sentAt time.Duration
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
	if c.err == nil {
		c.err = err
	}
	err = c.err
	pend := c.pending
	c.pending = nil // a dead channel starts no call
	c.mu.Unlock()
	for _, p := range pend {
		c.obs.deliver(p, response{}, 0, err)
	}
}

func (c *connChannel) start(req request, done completer) {
	p := pendingCall{done, req.Method, req.SentAt}
	c.mu.Lock()
	if c.err != nil {
		err := c.err
		c.mu.Unlock()
		c.obs.deliver(p, response{}, 0, err)
		return
	}
	c.pending[req.ID] = p
	c.mu.Unlock()

	if c.worker == nil {
		c.daemon.relay(c, req)
		return
	}
	// A closed queue refuses the request only once fail has taken its call:
	// fail comes first wherever the queue closes.
	c.worker.queue.Push(req)
}

func (c *connChannel) close() error {
	c.fail(ErrChannelClosed)
	if c.worker != nil {
		c.worker.stop()
	}
	return nil
}

// localWorker is a model service behind a FIFO served by one goroutine,
// like a single-threaded worker behind its message queue: in the coupler's
// process for the mpi channel, inside the amuse-socket-worker job for the
// sockets channel. It answers the one channel it serves itself.
type localWorker struct {
	svc service
	// hop is the sockets channel's loopback socket to the coupler; nil, each
	// crossing costs the mpi channel's fixed message latency.
	hop     *hop
	ch      *connChannel
	queue   fifo.Queue[request]
	stopped chan struct{}
}

// mpiMessageLatency is the per-call cost of the local MPI channel.
const mpiMessageLatency = 5 * time.Microsecond

// newWorkerChannel returns the channel to svc behind a new localWorker,
// whose loop the caller runs (serve).
func newWorkerChannel(svc service, hop *hop, obs *chanObs) *connChannel {
	c := &connChannel{obs: obs, pending: make(map[uint64]pendingCall)}
	c.worker = &localWorker{svc: svc, hop: hop, ch: c, stopped: make(chan struct{})}
	return c
}

// cross carries n bytes sent at virtual time at between the coupler and the
// worker and returns their arrival.
func (w *localWorker) cross(n int, at time.Duration) time.Duration {
	if w.hop == nil {
		return at + mpiMessageLatency
	}
	return w.hop.cross(n, at)
}

// serve is the worker loop: pop one request, dispatch, answer. Once the
// queue is closed, what is still queued does not run — fail has ended its
// calls — and the loop releases the service.
func (w *localWorker) serve() {
	defer close(w.stopped)
	defer w.svc.Close()
	for {
		req, ok := w.queue.Pop()
		if !ok {
			return
		}
		if w.queue.Closed() {
			continue
		}
		result, doneAt, err := w.svc.Dispatch(req.Method, req.Args, w.cross(req.Size(), req.SentAt))
		resp := kernel.LocalResponse(req.ID, result, doneAt, err)
		w.ch.answer(req.ID, resp, w.cross(resp.Size(), doneAt), nil)
	}
}

// stop closes the queue and waits for the loop to finish the dispatch in
// flight and release the service.
func (w *localWorker) stop() {
	w.queue.Close()
	<-w.stopped
}
