package sched

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"jungle/internal/amuse/ic"
	"jungle/internal/core"
)

// TestRetentionClosedSessions: a closed session leaves nothing behind that
// grows with the number of sessions. After 64 tenants that each started a
// worker, made calls and closed, the call and queue tables name none of
// them and are no longer than after the 16th, the deployment lists only
// live jobs, and the daemon holds no id block — while the next tenant's
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

	if id, want := tenant(n+1), (n+1)*4096+1; id != want {
		t.Fatalf("session %d's first worker id = %d, want %d", n+1, id, want)
	}
	if jobs, b := dep.Jobs(), tb.Daemon.SessionBlocks(); len(jobs) != 1 || b != 1 {
		t.Fatalf("one live tenant: %d jobs, %d id blocks; want 1 and 1", len(jobs), b)
	}
}
