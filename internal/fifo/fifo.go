// Package fifo is the jungle's one queue: an unbounded, blocking,
// closable FIFO. Every layer that parks messages or connections between a
// producer and a consumer goroutine — vnet conns and listeners,
// SmartSockets circuit ends and listeners, IPL receive ports, the mpi and
// sockets channels' worker loop — uses it, so "a popped element is
// forgotten" is implemented once: Pop zeroes the slot it vacates and an
// emptied queue rewinds onto the same array, so the queue never keeps a
// delivered payload reachable and a steady producer/consumer pair stops
// allocating.
package fifo

import "sync"

// Queue is an unbounded FIFO safe for any number of producers and
// consumers. The zero value is an open, empty queue. A Queue must not be
// copied after first use.
type Queue[T any] struct {
	mu     sync.Mutex
	cond   sync.Cond // on mu; wired up by the first lock
	items  []T       // items[head:] are queued, items[:head] are zero
	head   int
	closed bool
}

// lock takes mu and, the first time, points cond at it: written once, under
// mu, before anything can Wait — Wait re-reads cond.L outside the mutex.
func (q *Queue[T]) lock() {
	q.mu.Lock()
	if q.cond.L == nil {
		q.cond.L = &q.mu
	}
}

// Push appends v and wakes one waiting Pop. It reports false, queueing
// nothing, once the queue is closed.
func (q *Queue[T]) Push(v T) bool {
	q.lock()
	defer q.mu.Unlock()
	if q.closed {
		return false
	}
	if q.head > len(q.items)/2 && len(q.items) == cap(q.items) {
		// Full, and mostly vacated slots: slide the live tail down
		// instead of growing over them.
		n := copy(q.items, q.items[q.head:])
		clear(q.items[n:])
		q.items, q.head = q.items[:n], 0
	}
	q.items = append(q.items, v)
	q.cond.Signal()
	return true
}

// Pop blocks for the next element. After Close it keeps returning what was
// already queued, then reports false.
func (q *Queue[T]) Pop() (T, bool) {
	q.lock()
	defer q.mu.Unlock()
	for q.head == len(q.items) && !q.closed {
		q.cond.Wait()
	}
	var zero T
	if q.head == len(q.items) {
		return zero, false
	}
	v := q.items[q.head]
	q.items[q.head] = zero
	q.head++
	if q.head == len(q.items) {
		q.items, q.head = q.items[:0], 0
	}
	return v, true
}

// Close stops further pushes and releases every blocked Pop once the
// queue has drained. It reports whether this call was the one that closed
// the queue.
func (q *Queue[T]) Close() bool {
	q.lock()
	defer q.mu.Unlock()
	if q.closed {
		return false
	}
	q.closed = true
	q.cond.Broadcast()
	return true
}

// Closed reports whether Close has been called.
func (q *Queue[T]) Closed() bool {
	q.lock()
	defer q.mu.Unlock()
	return q.closed
}
