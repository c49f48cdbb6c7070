package sched

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"jungle/internal/amuse/ic"
	"jungle/internal/core"
	"jungle/internal/trace"
)

// TestRetentionClosedSessions: a closed session leaves nothing behind that
// grows with the number of sessions. After 64 tenants that each started a
// worker, made calls and closed, the call and queue tables name none of
// them and are no longer than after the 16th, the deployment lists only
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
	var callRows, queueRows int
	for i := 1; i <= n; i++ {
		id := tenant(i)
		job := tb.Daemon.WorkerJob(id)
		if err := s.Close(fmt.Sprintf("tenant-%02d", i)); err != nil {
			t.Fatal(err)
		}
		<-job.Done()
		if i == 16 {
			callRows, queueRows = len(tb.Recorder.CallTable()), len(tb.Recorder.QueueTable())
		}
	}

	calls, queues := tb.Recorder.CallTable(), tb.Recorder.QueueTable()
	for _, row := range calls {
		if strings.HasPrefix(row.Session, "tenant-") {
			t.Fatalf("call table keeps closed session %q (%s %s)", row.Session, row.Model, row.Method)
		}
	}
	for _, row := range queues {
		if strings.HasPrefix(row.Session, "tenant-") {
			t.Fatalf("queue table keeps closed session %q (%s)", row.Session, row.Worker)
		}
	}
	if len(calls) != callRows || len(queues) != queueRows {
		t.Fatalf("tables grew from session 16 to %d: calls %d -> %d rows, queues %d -> %d",
			n, callRows, len(calls), queueRows, len(queues))
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
