package sched

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"jungle/internal/amuse/ic"
	"jungle/internal/core"
	"jungle/internal/trace"
)

// TestRetentionClosedSessions: a closed session leaves nothing behind that
// grows with the number of sessions. After 64 tenants that each started a
// worker, made calls and closed, the call table names none of them and
// is no longer than after the 16th, the deployment lists only
// live jobs, the daemon holds no id block, the scheduler no session record
// and the recorder only the (closed) stats row — while the next tenant's
// first worker id is still the one a daemon that forgot nothing assigns.
func TestRetentionClosedSessions(t *testing.T) {
	tb, s := testPlane(t, Config{MaxLive: 1})
	ctx := context.Background()
	dep := tb.Daemon.Deployment()
	// tenant starts session i's worker, makes calls on it and returns its
	// worker id.
	tenant := func(i int) int {
		t.Helper()
		sess, _, err := s.Attach(ctx, fmt.Sprintf("tenant-%02d", i), false)
		if err != nil {
			t.Fatal(err)
		}
		g, err := sess.NewSim(ctx, nil).NewGravity(ctx,
			core.WorkerSpec{Resource: "desktop", Channel: core.ChannelIbis}, core.GravityOptions{Eps: 0.01})
		if err != nil {
			t.Fatal(err)
		}
		if err := g.SetParticles(ic.Plummer(16, 7)); err != nil {
			t.Fatal(err)
		}
		if err := g.EvolveTo(ctx, 1.0/64); err != nil {
			t.Fatal(err)
		}
		return g.WorkerIDs()[0]
	}

	const n = 64
	var callRows int
	for i := 1; i <= n; i++ {
		id := tenant(i)
		job := tb.Daemon.WorkerJob(id)
		if err := s.Close(fmt.Sprintf("tenant-%02d", i)); err != nil {
			t.Fatal(err)
		}
		<-job.Done()
		if i == 16 {
			callRows = len(tb.Recorder.CallTable())
		}
	}

	calls := tb.Recorder.CallTable()
	for _, row := range calls {
		if strings.HasPrefix(row.Session, "tenant-") {
			t.Fatalf("call table keeps closed session %q (%s %s)", row.Session, row.Model, row.Method)
		}
	}
	if len(calls) != callRows {
		t.Fatalf("call table grew from session 16 to %d: %d -> %d rows", n, callRows, len(calls))
	}
	if jobs := dep.Jobs(); len(jobs) != 0 {
		t.Fatalf("deployment lists %d jobs with no worker live", len(jobs))
	}
	if b := tb.Daemon.SessionBlocks(); b != 0 {
		t.Fatalf("daemon holds %d id blocks after every session closed", b)
	}
	s.mu.Lock()
	records := len(s.sessions)
	s.mu.Unlock()
	if records != 0 {
		t.Fatalf("scheduler keeps %d session records after every session closed", records)
	}
	rows := tb.Recorder.Sessions()
	if len(rows) != 1 || rows[trace.ClosedSession].Closed != n {
		t.Fatalf("session rows after %d closes: %+v; want only the (closed) row, counting %d", n, rows, n)
	}

	if id, want := tenant(n+1), (n+1)*4096+1; id != want {
		t.Fatalf("session %d's first worker id = %d, want %d", n+1, id, want)
	}
	if jobs, b := dep.Jobs(), tb.Daemon.SessionBlocks(); len(jobs) != 1 || b != 1 {
		t.Fatalf("one live tenant: %d jobs, %d id blocks; want 1 and 1", len(jobs), b)
	}
}

// TestRetentionAttachCloseCycles: once the retired-id windows are full,
// attach/close cycles keep nothing, so thousands of them leave the live
// heap where it was. When the scheduler kept every closed session's
// record and stats row, 4096 cycles grew it by about 1.2 MB.
func TestRetentionAttachCloseCycles(t *testing.T) {
	_, s := testPlane(t, Config{MaxLive: 1})
	ctx := context.Background()
	next := 0
	cycles := func(n int) {
		t.Helper()
		for end := next + n; next < end; next++ {
			id := fmt.Sprintf("cycle-%06d", next)
			if _, _, err := s.Attach(ctx, id, false); err != nil {
				t.Fatal(err)
			}
			if err := s.Close(id); err != nil {
				t.Fatal(err)
			}
		}
	}
	heap := func() uint64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	cycles(2 * trace.RetiredWindow) // fill both windows
	before := heap()
	cycles(4096)
	after := heap()
	if grew := int64(after) - int64(before); grew >= 64<<10 {
		t.Fatalf("4096 attach/close cycles grew the live heap by %d B, want < 64 KiB", grew)
	}
}

// TestRetentionRetiredWindow: a just-closed id is refused everywhere with
// ErrSessionClosed and closing it again is a no-op; an id closed more than
// a window ago is forgotten and attaches fresh.
func TestRetentionRetiredWindow(t *testing.T) {
	_, s := testPlane(t, Config{MaxLive: 1, Run: func(context.Context, *Session, []byte) ([]byte, error) {
		return nil, nil
	}})
	ctx := context.Background()
	attachClose := func(id string) {
		t.Helper()
		if _, _, err := s.Attach(ctx, id, false); err != nil {
			t.Fatalf("attach %s: %v", id, err)
		}
		if err := s.Close(id); err != nil {
			t.Fatalf("close %s: %v", id, err)
		}
	}

	attachClose("first")
	_, _, err := s.Attach(ctx, "first", false)
	_, serr := s.Status("first")
	_, herr := s.Heartbeat("first")
	_, rerr := s.Run(ctx, "first", nil)
	for op, err := range map[string]error{"Attach": err, "Status": serr, "Heartbeat": herr, "Run": rerr} {
		if !errors.Is(err, ErrSessionClosed) {
			t.Fatalf("%s on a just-closed id: %v, want ErrSessionClosed", op, err)
		}
	}
	if err := s.Close("first"); err != nil {
		t.Fatalf("closing a closed id again: %v, want nil", err)
	}
	if err := s.Close("never-attached"); !errors.Is(err, ErrUnknownSession) {
		t.Fatalf("closing an unknown id: %v, want ErrUnknownSession", err)
	}

	for i := 0; i < trace.RetiredWindow-1; i++ {
		attachClose(fmt.Sprintf("filler-%04d", i))
	}
	if _, _, err := s.Attach(ctx, "first", false); !errors.Is(err, ErrSessionClosed) {
		t.Fatalf("attach of the window's oldest id: %v, want ErrSessionClosed", err)
	}
	attachClose("last")
	sess, resumed, err := s.Attach(ctx, "first", false)
	if err != nil || resumed || sess.State() != StateRunning {
		t.Fatalf("attach of an id closed a window ago: %v, resumed %v; want a fresh running session", err, resumed)
	}
}

// TestRetentionAbandonedAttaches: an attach parked behind a full plane that
// gives up leaves nothing behind. After 100 attaches of new ids gave up in
// the queue, the scheduler holds one record and the recorder one stats
// row, the holder's; a preempted session whose parked attach gives up goes
// back to preempted with its snapshot.
func TestRetentionAbandonedAttaches(t *testing.T) {
	tb, s := testPlane(t, Config{MaxLive: 1})
	ctx := context.Background()
	giveUp := func(id string) {
		t.Helper()
		wctx, cancel := context.WithTimeout(ctx, time.Millisecond)
		defer cancel()
		if _, _, err := s.Attach(wctx, id, true); !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("parked attach of %s: %v, want the context's deadline", id, err)
		}
	}
	records := func() int {
		s.mu.Lock()
		defer s.mu.Unlock()
		return len(s.sessions)
	}

	holder, _, err := s.Attach(ctx, "holder", false)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		giveUp(fmt.Sprintf("waiter-%03d", i))
	}
	if n, rows := records(), tb.Recorder.Sessions(); n != 1 || len(rows) != 1 || rows["holder"].State != string(StateRunning) {
		t.Fatalf("after 100 abandoned attaches: %d records, %d rows (holder's %+v); want 1 and 1, the holder's",
			n, len(rows), rows["holder"])
	}

	holder.SetEvictor(func(context.Context) ([]byte, error) { return []byte("snapshot"), nil })
	if err := s.evict(ctx, holder); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Attach(ctx, "next", false); err != nil {
		t.Fatal(err)
	}
	giveUp("holder")
	if st, snap, n := holder.State(), string(holder.Snapshot()), records(); st != StatePreempted || snap != "snapshot" || n != 2 {
		t.Fatalf("preempted session after its attach gave up: %s, snapshot %q, %d records; want preempted, its snapshot, 2",
			st, snap, n)
	}
	if row := tb.Recorder.Sessions()["holder"]; row.State != string(StatePreempted) || row.Evictions != 1 {
		t.Fatalf("preempted session's row %+v, want preempted with its eviction", row)
	}

	// Two attaches park for it; the one that found it preempted gives up
	// first, and the one that found it queued, last, still puts it back.
	errs := make(chan error, 2)
	park := func(wctx context.Context, want int) {
		t.Helper()
		go func() {
			_, _, err := s.Attach(wctx, "holder", true)
			errs <- err
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
				t.Fatalf("attach %d never parked", want)
			case <-time.After(time.Millisecond):
			}
		}
	}
	first, cancelFirst := context.WithCancel(ctx)
	defer cancelFirst()
	last, cancelLast := context.WithCancel(ctx)
	defer cancelLast()
	park(first, 1)
	park(last, 2)
	for i, cancel := range []context.CancelFunc{cancelFirst, cancelLast} {
		cancel()
		if err := <-errs; !errors.Is(err, context.Canceled) {
			t.Fatalf("parked attach %d: %v, want canceled", i, err)
		}
		if want := []State{StateQueued, StatePreempted}[i]; holder.State() != want {
			t.Fatalf("after %d of 2 parked attaches gave up: %s, want %s", i+1, holder.State(), want)
		}
	}
}
