package core

import (
	"context"
	"errors"
	"sync"
	"time"

	"jungle/internal/core/kernel"
	"jungle/internal/phys/bridge"
	"jungle/internal/vtime"
)

// Waiter is the minimal future interface — an alias of bridge.Waiter, so
// the coupler's calls plug straight into the bridge's pipelined
// integrator and Gather accepts both *Call and any other pending
// operation a model handle returns.
type Waiter = bridge.Waiter

// ErrInFlight is returned by Call.Decode while the call has not completed
// yet.
var ErrInFlight = errors.New("core: call still in flight")

// Call is one in-flight RPC against a worker — the future returned by
// Model.Go and the Go* methods on every model handle. The call is issued
// (put on the channel, and for remote workers on the wide-area link)
// before Go returns; Wait only collects the outcome. Issuing many calls
// before waiting on any is how the coupler overlaps communication with
// communication: N calls over one slow link cost about one round trip,
// not N.
//
// The coupler's virtual clock advances when the script observes a call's
// outcome (Wait, Decode), to the time the response reached it — not
// when the response happens to be delivered. A call is stamped with the
// clock at issue, so what a script reads from the clock depends only on
// what it has waited for, never on how far the goroutines carrying other
// responses have got.
//
// A Call is safe for concurrent use. Abandoning a Call (cancelling every
// Wait, or never waiting) does not disturb the worker or the channel: the
// response is still received and discarded, and costs the script no time.
type Call struct {
	// seq is the issue-order sequence number on the owning proxy; used to
	// restore FIFO order when calls parked behind a rebuild are re-issued.
	seq uint64

	done chan struct{}
	// result, err and doneAt (the virtual time the outcome reached the
	// coupler) are written exactly once, before done is closed; closing
	// the channel publishes them.
	result []byte
	err    error
	doneAt time.Duration
	// frame is the one frame the call hands back to kernel's free list, if
	// any (DESIGN.md § Buffer ownership, "Bulk frames are recycled"): while
	// a set_state is in flight its own request frame, which send hands back
	// once the attempt succeeds; from finish on, the frame result arrived in,
	// which an after hook hands back once it has decoded it (release).
	frame []byte
	// clock is the coupler's clock, advanced to doneAt when the outcome is
	// observed; nil for a call that failed before it was issued.
	clock *vtime.Clock

	finishOnce sync.Once
	// after post-processes the raw result (decode, scatter into a
	// particle set) the first time the outcome is observed.
	after     func(*Call) error
	afterOnce sync.Once

	// The attempt in flight (send writes it, complete reads it): how it was
	// sent, when, and the method and args a replay sends again.
	m      *modelProxy
	gen    int
	class  callClass
	at     time.Duration
	method string
	args   []byte
}

func newCall(clock *vtime.Clock, after func(*Call) error) *Call {
	return &Call{clock: clock, done: make(chan struct{}), after: after}
}

// failedCall returns an already-completed Call carrying err (used when a
// call cannot even be issued).
func failedCall(err error) *Call {
	c := newCall(nil, nil)
	c.finish(nil, nil, err, 0)
	return c
}

// finish completes the call exactly once; at is the virtual time the
// outcome reached the coupler.
func (c *Call) finish(result, frame []byte, err error, at time.Duration) {
	c.finishOnce.Do(func() {
		c.result, c.frame, c.err, c.doneAt = result, frame, err, at
		close(c.done)
	})
}

// outcome runs the post-processing hook (once) and returns the final
// error. Only valid after done is closed.
func (c *Call) outcome() error {
	c.afterOnce.Do(func() {
		if c.err == nil && c.after != nil {
			c.err = c.after(c)
		}
	})
	return c.err
}

// release hands the frame the result arrived in back to the free list and
// forgets both: an after hook's last step, once it has decoded all it keeps.
func (c *Call) release() {
	kernel.ReleaseFrame(c.frame)
	c.result, c.frame = nil, nil
}

// observe is outcome for the script: seeing the outcome is what costs the
// coupler the call's time.
func (c *Call) observe() error {
	if c.clock != nil {
		c.clock.AdvanceTo(c.doneAt)
	}
	return c.outcome()
}

// await is Wait for a continuation — a goroutine that finishes one
// operation's calls and issues the next on the script's behalf. It leaves
// the clock alone and returns the time the outcome arrived, which the
// continuation stamps on what it issues next: the script pays when it
// observes the operation's last call.
func (c *Call) await(ctx context.Context) (time.Duration, error) {
	select {
	case <-c.done:
		return c.doneAt, c.outcome()
	case <-ctx.Done():
		return 0, ctx.Err()
	}
}

// Wait blocks until the call completes or ctx is done, and returns the
// call's error (nil on success). A context error abandons only this wait:
// the RPC stays in flight, a later Wait can still collect it, and the
// worker and channel remain fully usable — cancellation never poisons the
// session.
func (c *Call) Wait(ctx context.Context) error {
	select {
	case <-c.done:
		return c.observe()
	default:
	}
	if ctx == nil {
		ctx = context.Background()
	}
	select {
	case <-c.done:
		return c.observe()
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Decode decodes the completed call's result into reply (which must be a
// pointer to a plain struct, see kernel.Decode). It returns ErrInFlight before
// completion and the call's error after a failure.
func (c *Call) Decode(reply any) error {
	select {
	case <-c.done:
	default:
		return ErrInFlight
	}
	if err := c.observe(); err != nil {
		return err
	}
	if reply == nil {
		return nil
	}
	return kernel.Decode(c.result, reply)
}

// Gather waits for every call (fan-in for pipelined fan-out) and joins
// their errors. All calls are already in flight when Gather starts, so
// the total wait is the slowest call, not the sum — the paper's "many
// slow links at once" execution shape. A context error is reported once
// per unfinished call in the joined error.
func Gather(ctx context.Context, calls ...Waiter) error {
	var errs []error
	for _, c := range calls {
		if c == nil {
			continue
		}
		if err := c.Wait(ctx); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}
