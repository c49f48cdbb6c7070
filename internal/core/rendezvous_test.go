package core

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"jungle/internal/core/kernel"
)

// token is a parked value that knows whether the rendezvous released it —
// the stand-in for a connection that must be closed when nobody claims it.
type token struct {
	id      int
	dropped atomic.Int32
}

func newTokenRendezvous() *rendezvous[string, *token] {
	return newRendezvous(
		func(key string) string { return fmt.Sprintf("key %s: nothing deposited", key) },
		func(v *token) { v.dropped.Add(1) })
}

// parked waits until n waits are registered, so a test deposits or closes
// against a wait that is really parked, without sleeping.
func (r *rendezvous[K, V]) parked(n int) {
	for {
		r.mu.Lock()
		got := len(r.waiters)
		r.mu.Unlock()
		if got >= n {
			return
		}
		runtime.Gosched()
	}
}

type waitResult struct {
	v   *token
	err error
}

func goWait(r *rendezvous[string, *token], key string, timeout time.Duration) chan waitResult {
	out := make(chan waitResult, 1)
	go func() {
		v, err := r.wait(key, timeout)
		out <- waitResult{v, err}
	}()
	return out
}

// TestRendezvous pins the one deposit/wait structure behind the transfer
// mailbox and the gang mailbox: whichever side comes first waits for the
// other, and a value nobody will claim — superseded, late, racing the
// watchdog, parked at teardown — is released exactly once, never stranded.
func TestRendezvous(t *testing.T) {
	const long = 10 * time.Second
	for _, c := range []struct {
		name string
		run  func(t *testing.T, r *rendezvous[string, *token])
	}{
		{"deposit then wait", func(t *testing.T, r *rendezvous[string, *token]) {
			a := &token{id: 1}
			r.deposit("k", a)
			if v, err := r.wait("k", long); err != nil || v != a || a.dropped.Load() != 0 {
				t.Fatalf("wait = (%v, %v), dropped %d; want the deposited value, kept", v, err, a.dropped.Load())
			}
		}},
		{"wait then deposit", func(t *testing.T, r *rendezvous[string, *token]) {
			a, other := &token{id: 1}, &token{id: 2}
			got := goWait(r, "k", long)
			r.parked(1)
			r.deposit("other", other) // another key does not wake it
			r.deposit("k", a)
			if res := <-got; res.err != nil || res.v != a || a.dropped.Load() != 0 {
				t.Fatalf("wait = %+v, dropped %d; want the deposited value, kept", res, a.dropped.Load())
			}
			if v, err := r.wait("other", long); err != nil || v != other {
				t.Fatalf("wait(other) = (%v, %v)", v, err)
			}
		}},
		{"duplicate deposit drops the older value", func(t *testing.T, r *rendezvous[string, *token]) {
			a, b := &token{id: 1}, &token{id: 2}
			r.deposit("k", a)
			r.deposit("k", b)
			if a.dropped.Load() != 1 || b.dropped.Load() != 0 {
				t.Fatalf("dropped older %d, newer %d; want 1, 0", a.dropped.Load(), b.dropped.Load())
			}
			if v, err := r.wait("k", long); err != nil || v != b {
				t.Fatalf("wait = (%v, %v), want the newer value", v, err)
			}
		}},
		{"deposit after consume is dropped", func(t *testing.T, r *rendezvous[string, *token]) {
			a, late := &token{id: 1}, &token{id: 2}
			r.deposit("k", a)
			if _, err := r.wait("k", long); err != nil {
				t.Fatal(err)
			}
			r.deposit("k", late)
			if late.dropped.Load() != 1 || len(r.box) != 0 {
				t.Fatalf("late deposit dropped %d times, %d parked; want 1, 0", late.dropped.Load(), len(r.box))
			}
			// The watchdog consumes a key as well.
			_, err := r.wait("never", time.Microsecond)
			if !errors.Is(err, kernel.ErrTransport) || !strings.Contains(err.Error(), "key never: nothing deposited within 1µs") {
				t.Fatalf("timed-out wait: %v", err)
			}
			r.deposit("never", late)
			if late.dropped.Load() != 2 || len(r.box) != 0 {
				t.Fatalf("deposit after timeout dropped %d times, %d parked; want 2, 0", late.dropped.Load(), len(r.box))
			}
		}},
		{"deposit racing the timeout is dropped, not stranded", func(t *testing.T, r *rendezvous[string, *token]) {
			// Each round deposits the moment the watchdog is due. Whichever
			// wins, the value ends up in exactly one place: returned by the
			// wait, or released — never left in the waiter's channel.
			returned, released := 0, 0
			for i := 0; i < 500; i++ {
				key, v := fmt.Sprint(i), &token{id: i}
				const timeout = 20 * time.Microsecond
				start := time.Now()
				got := goWait(r, key, timeout)
				for time.Since(start) < timeout {
					runtime.Gosched()
				}
				r.deposit(key, v)
				res := <-got
				switch d := v.dropped.Load(); {
				case res.err == nil && res.v == v && d == 0:
					returned++
				case errors.Is(res.err, kernel.ErrTransport) && res.v == nil && d == 1:
					released++
				default:
					t.Fatalf("round %d: wait = %+v, value released %d times", i, res, d)
				}
				if len(r.box)+len(r.waiters) != 0 {
					t.Fatalf("round %d: %d parked values, %d waiters left", i, len(r.box), len(r.waiters))
				}
			}
			t.Logf("%d deposits won, %d timeouts won", returned, released)
		}},
		{"close fails parked waiters", func(t *testing.T, r *rendezvous[string, *token]) {
			parkedValue, late := &token{id: 1}, &token{id: 2}
			r.deposit("parked", parkedValue)
			w1, w2 := goWait(r, "a", long), goWait(r, "b", long)
			r.parked(2)
			r.close()
			for _, w := range []chan waitResult{w1, w2} {
				if res := <-w; !errors.Is(res.err, errPeerPlaneClosed) || !errors.Is(res.err, kernel.ErrTransport) {
					t.Fatalf("parked wait after close: %+v", res)
				}
			}
			if parkedValue.dropped.Load() != 1 {
				t.Fatalf("value parked at close released %d times, want 1", parkedValue.dropped.Load())
			}
			r.deposit("c", late)
			if _, err := r.wait("c", long); !errors.Is(err, errPeerPlaneClosed) || late.dropped.Load() != 1 {
				t.Fatalf("after close: wait err %v, late deposit released %d times", err, late.dropped.Load())
			}
		}},
	} {
		t.Run(c.name, func(t *testing.T) { c.run(t, newTokenRendezvous()) })
	}

	// The transfer mailbox has no drop: superseded and orphaned deliveries
	// are plain bytes for the collector.
	r := newRendezvous[uint64, peerDelivery](func(id uint64) string { return fmt.Sprint(id) }, nil)
	r.deposit(1, peerDelivery{arrival: 1})
	r.deposit(1, peerDelivery{arrival: 2})
	if d, err := r.wait(1, long); err != nil || d.arrival != 2 {
		t.Fatalf("wait = (%+v, %v), want the newer delivery", d, err)
	}
	r.deposit(1, peerDelivery{})
	r.deposit(2, peerDelivery{})
	r.close()
}
