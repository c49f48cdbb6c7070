package watchdog

import (
	"testing"
	"time"
)

// TestWatchdogTimerReuse: a timer that fired unread, and one stopped before
// it fired, go back on the free list, and the next Start hands each out
// again without a tick from before: its next waiter sees only its own
// deadline, which still fires. A wait that reuses a timer allocates
// nothing.
func TestWatchdogTimerReuse(t *testing.T) {
	quiet := func(w *time.Timer, what string) {
		t.Helper()
		select {
		case <-w.C:
			t.Fatalf("a timer that %s delivered a tick to its next waiter", what)
		case <-time.After(50 * time.Millisecond):
		}
	}
	fired := Start(time.Millisecond)
	time.Sleep(20 * time.Millisecond) // it fires; nobody reads the tick
	Stop(fired)
	next := Start(time.Hour)
	if next != fired {
		t.Fatal("Start allocated a timer while the free list held one")
	}
	quiet(next, "fired unread")
	Stop(next) // long before its deadline
	again := Start(time.Hour)
	if again != next {
		t.Fatal("Start allocated a timer while the free list held one")
	}
	quiet(again, "was stopped")
	Stop(again)
	own := Start(time.Millisecond)
	select {
	case <-own.C:
	case <-time.After(10 * time.Second):
		t.Fatal("a reused timer never fired at its own deadline")
	}
	Stop(own)
	if allocs := testing.AllocsPerRun(100, func() { Stop(Start(time.Hour)) }); allocs != 0 {
		t.Errorf("a wait on a reused timer: %v allocations, want 0", allocs)
	}
}
