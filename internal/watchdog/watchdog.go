// Package watchdog hands out the wall-clock timers that turn a hang into a
// structured error, and takes them back. A wait that needs one calls
// Start and, once the wait is over, Stop: the timer goes on a free list
// and the next Start resets it, where a fresh timer per wait would
// allocate one each time. Since Go 1.23 (the module's go line is newer) a
// stopped timer delivers no tick from before, whether it had fired or
// not; Stop also drains the tick older timers would keep. So a reused
// timer's waiter sees only its own. The list is a slice under a mutex, not
// a sync.Pool: a pool is emptied by every collection and would allocate
// again after each.
package watchdog

import (
	"sync"
	"time"
)

// maxFree bounds the stopped timers the list holds: more than the waits
// that are ever under way at once.
const maxFree = 256

var (
	mu   sync.Mutex
	free []*time.Timer
)

// Start returns a timer that fires once d from now. Every call site
// carries a "// watchdog:" comment saying which hang it turns into which
// error (make timer-check). Give the timer back with Stop.
func Start(d time.Duration) *time.Timer {
	mu.Lock()
	if n := len(free); n > 0 {
		t := free[n-1]
		free = free[:n-1]
		mu.Unlock()
		t.Reset(d)
		return t
	}
	mu.Unlock()
	return time.NewTimer(d) // watchdog: the free list's first timers, which Start hands out
}

// Stop stops t, a timer Start returned, and puts it on the free list. The
// caller neither reads t.C nor calls Stop again after.
func Stop(t *time.Timer) {
	if !t.Stop() {
		// Under GODEBUG=asynctimerchan=1 a tick that fired unread waits in
		// the channel; take it, or the next waiter would time out at once.
		select {
		case <-t.C:
		default:
		}
	}
	mu.Lock()
	if len(free) < maxFree {
		free = append(free, t)
	}
	mu.Unlock()
}
