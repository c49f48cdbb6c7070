package sched

// Admission-fairness tests: ensemble fan-out parks many member attaches
// at once, so queued waiters must admit strictly FIFO as slots free, a
// session double-parked while queued must never consume two live slots,
// and an attach whose context cancels while the pump is admitting it
// must not leak the slot.

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

// parkWaiter spawns an attach with wait=true and blocks until it is
// parked in the admission queue (queue length reaches want).
func parkWaiter(t *testing.T, s *Scheduler, id string, want int, done chan<- string) {
	t.Helper()
	go func() {
		if _, _, err := s.Attach(context.Background(), id, true); err != nil {
			done <- fmt.Sprintf("error:%s:%v", id, err)
			return
		}
		done <- id
	}()
	deadline := time.After(5 * time.Second)
	for {
		s.mu.Lock()
		queued := len(s.queue)
		s.mu.Unlock()
		if queued >= want {
			return
		}
		select {
		case <-deadline:
			t.Fatalf("waiter %s never queued (queue %d, want %d)", id, queued, want)
		case <-time.After(time.Millisecond):
		}
	}
}

// TestQueueAdmitOrderUnderBurst parks six member attaches behind a full
// single-slot plane and releases the slot six times: the members must
// admit in exactly the order they queued.
func TestQueueAdmitOrderUnderBurst(t *testing.T) {
	_, s := testPlane(t, Config{MaxLive: 1, QueueCap: 8})
	ctx := context.Background()

	if _, _, err := s.Attach(ctx, "holder", false); err != nil {
		t.Fatalf("holder attach: %v", err)
	}

	const n = 6
	admitted := make(chan string, n)
	for i := 0; i < n; i++ {
		parkWaiter(t, s, fmt.Sprintf("member-%d", i), i+1, admitted)
	}

	// Free the slot; each admitted member immediately closes, freeing the
	// slot for the next queued one.
	if err := s.Close("holder"); err != nil {
		t.Fatal(err)
	}
	var order []string
	for i := 0; i < n; i++ {
		select {
		case id := <-admitted:
			order = append(order, id)
			if err := s.Close(id); err != nil {
				t.Fatalf("close %s: %v", id, err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("only %d of %d members admitted: %v", i, n, order)
		}
	}
	for i, id := range order {
		if want := fmt.Sprintf("member-%d", i); id != want {
			t.Fatalf("admission order %v not FIFO (position %d: got %s, want %s)", order, i, id, want)
		}
	}
}

// TestQueuedDoubleAttachSharesSlot: two attaches parked for the same
// session while it was queued must resolve into ONE admission consuming
// one live slot — a double admission would strand the plane's capacity
// accounting and starve later members.
func TestQueuedDoubleAttachSharesSlot(t *testing.T) {
	_, s := testPlane(t, Config{MaxLive: 1, QueueCap: 8})
	ctx := context.Background()

	if _, _, err := s.Attach(ctx, "holder", false); err != nil {
		t.Fatalf("holder attach: %v", err)
	}
	done := make(chan string, 2)
	parkWaiter(t, s, "twin", 1, done)
	parkWaiter(t, s, "twin", 2, done)

	if err := s.Close("holder"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		select {
		case id := <-done:
			if id != "twin" {
				t.Fatalf("parked attach resolved with %q", id)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("second parked attach for the session never resolved")
		}
	}
	s.mu.Lock()
	live := s.live
	s.mu.Unlock()
	if live != 1 {
		t.Fatalf("one session consumed %d live slots", live)
	}
	// Closing the session once must free the whole plane.
	if err := s.Close("twin"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Attach(ctx, "next", false); err != nil {
		t.Fatalf("attach after close: %v (slot leaked?)", err)
	}
}

// TestAttachCancelDuringAdmission cancels a parked attach's context and
// frees a slot at the same moment. Whichever way the race resolves, the
// attach must return the admitted session — returning the context error
// after the pump admitted it would leak the live slot forever.
func TestAttachCancelDuringAdmission(t *testing.T) {
	_, s := testPlane(t, Config{MaxLive: 1, QueueCap: 8})

	if _, _, err := s.Attach(context.Background(), "holder", false); err != nil {
		t.Fatalf("holder attach: %v", err)
	}
	cctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	var sess *Session
	var aerr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		sess, _, aerr = s.Attach(cctx, "racer", true)
	}()
	deadline := time.After(5 * time.Second)
	for {
		s.mu.Lock()
		queued := len(s.queue)
		s.mu.Unlock()
		if queued == 1 {
			break
		}
		select {
		case <-deadline:
			t.Fatal("racer never queued")
		case <-time.After(time.Millisecond):
		}
	}

	// Cancel under the scheduler lock and admit before releasing it: the
	// attach goroutine, woken by the cancellation, cannot take the waiter
	// off the queue first, so the waiter leaves it with its admission
	// already decided.
	s.mu.Lock()
	cancel()
	s.live--
	s.pumpLocked()
	s.mu.Unlock()
	wg.Wait()

	if aerr != nil {
		t.Fatalf("attach returned %v after the pump admitted it", aerr)
	}
	if sess == nil || sess.getState() != StateRunning {
		t.Fatalf("admitted session not running: %v", sess)
	}
	s.mu.Lock()
	live := s.live
	s.mu.Unlock()
	if live != 1 {
		t.Fatalf("live = %d after cancel/admit race, want 1", live)
	}
}

// TestSchedulerAttachRetry: a busy plane rejects, the retry loop waits on
// the scheduler's own event, not on the RetryAfter hint (an hour here), and
// the attach lands as soon as the slot frees. Exhausted attempts surface
// the busy error, each retry woken by a queue place freeing.
func TestSchedulerAttachRetry(t *testing.T) {
	_, s := testPlane(t, Config{MaxLive: 1, RetryAfter: time.Hour})
	ctx := context.Background()

	if _, _, err := s.Attach(ctx, "holder", false); err != nil {
		t.Fatalf("holder attach: %v", err)
	}
	type result struct {
		retries int
		err     error
	}
	retry := func(id string, attempts int) <-chan result {
		out := make(chan result, 1)
		go func() {
			_, _, retries, err := s.AttachRetry(ctx, id, false, attempts)
			out <- result{retries, err}
		}()
		return out
	}
	// refused waits until a rejected AttachRetry waits for the next freeing.
	refused := func() {
		t.Helper()
		deadline := time.After(5 * time.Second)
		for {
			s.mu.Lock()
			waiting := s.freed != nil
			s.mu.Unlock()
			if waiting {
				return
			}
			select {
			case <-deadline:
				t.Fatal("AttachRetry never waited on a refusal")
			case <-time.After(time.Millisecond):
			}
		}
	}
	outcome := func(got <-chan result) result {
		t.Helper()
		select {
		case r := <-got:
			return r
		case <-time.After(10 * time.Second):
			t.Fatal("AttachRetry still waiting 10 s after the plane freed")
			return result{}
		}
	}

	got := retry("member", 100)
	refused()
	if err := s.Close("holder"); err != nil {
		t.Fatal(err)
	}
	if r := outcome(got); r.err != nil || r.retries != 1 {
		t.Fatalf("AttachRetry after the slot freed: %d retries, %v; want 1 and success", r.retries, r.err)
	}

	// "member" keeps the only slot; two queued sessions close, and each
	// close wakes the loop for one more refused attempt.
	got = retry("late", 3)
	for i := 0; i < 2; i++ {
		refused()
		id := fmt.Sprintf("queued-%d", i)
		parkWaiter(t, s, id, 1, make(chan string, 1))
		if err := s.Close(id); err != nil {
			t.Fatal(err)
		}
	}
	r := outcome(got)
	var be *BusyError
	if !errors.As(r.err, &be) || r.retries != 2 {
		t.Fatalf("AttachRetry past MaxLive: %d retries, %v; want 2 and a busy error", r.retries, r.err)
	}
}
