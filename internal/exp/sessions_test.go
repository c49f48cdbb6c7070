package exp

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"

	"jungle/internal/core"
	"jungle/internal/sched"
	"jungle/internal/trace"
)

func sessionPlane(t *testing.T, cfg sched.Config) (*core.Testbed, *sched.Scheduler) {
	t.Helper()
	tb, err := core.NewLabTestbed()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(tb.Close)
	cfg.Recorder = tb.Recorder
	s := sched.New(tb.Daemon, cfg)
	t.Cleanup(s.Shutdown)
	return tb, s
}

// testClock is a hand-advanced lease clock.
type testClock struct {
	mu  sync.Mutex
	now time.Time
}

func (c *testClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *testClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

// TestSessionLifecycleBitCompatible is the multi-tenant resume guarantee:
// a session that is admitted, runs half its iterations, idles past its
// lease, is reaped (evicted into a snapshot, workers stopped, slot
// freed), and re-attaches must finish in exactly the end state — digest
// and supernovae — of a session that ran straight through.
func TestSessionLifecycleBitCompatible(t *testing.T) {
	if testing.Short() {
		t.Skip("full session lifecycle")
	}
	const iters = 4
	w := DefaultWorkload().Scaled(0.02)
	ctx := context.Background()

	_, straight := sessionPlane(t, sched.Config{})
	base, err := RunSessionWorkload(ctx, straight, "tenant", w, AutoPlacement(), iters)
	if err != nil {
		t.Fatal(err)
	}
	if base.StateDigest == 0 {
		t.Fatal("baseline digest unavailable")
	}

	// Interrupted plane: run half, idle past the lease, get reaped.
	clk := &testClock{now: time.Unix(4000, 0)}
	tb, s := sessionPlane(t, sched.Config{LeaseTTL: time.Minute, Now: clk.Now})
	sess, resumed, err := s.Attach(ctx, "tenant", false)
	if err != nil || resumed {
		t.Fatalf("attach: resumed=%v err=%v", resumed, err)
	}
	sr, err := StartSessionScenario(ctx, sess, w, AutoPlacement())
	if err != nil {
		t.Fatal(err)
	}
	if err := sr.Step(ctx, iters/2); err != nil {
		t.Fatal(err)
	}
	clk.Advance(2 * time.Minute)
	reaped, err := s.ReapIdle(ctx)
	if err != nil || len(reaped) != 1 || reaped[0] != "tenant" {
		t.Fatalf("reap = %v, %v; want [tenant]", reaped, err)
	}
	if n := tb.Daemon.SessionWorkers("tenant"); len(n) != 0 {
		t.Fatalf("reaped session still holds workers %v", n)
	}

	// Re-attach and finish: RunSessionWorkload resumes from the snapshot
	// and runs the remaining iterations.
	res, err := RunSessionWorkload(ctx, s, "tenant", w, AutoPlacement(), iters-iters/2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations != iters {
		t.Fatalf("resumed run reports %d iterations, want %d across the eviction", res.Iterations, iters)
	}
	if res.StateDigest != base.StateDigest {
		t.Fatalf("resumed session digest %x != straight-through %x", res.StateDigest, base.StateDigest)
	}
	if res.Supernovae != base.Supernovae {
		t.Fatalf("resumed supernovae %d != straight-through %d", res.Supernovae, base.Supernovae)
	}

	// The trace recorder kept the session's story: closed, it is folded
	// into the (closed) row, the plane's only session on this testbed.
	st, ok := tb.Recorder.Sessions()[trace.ClosedSession]
	if !ok || st.Closed != 1 || st.Evictions != 1 || st.Resumes != 1 {
		t.Fatalf("session accounting = %+v, ok=%v; want 1 closed session, 1 eviction, 1 resume", st, ok)
	}
	if view := tb.Recorder.RenderSessions(); !strings.Contains(view, trace.ClosedSession) {
		t.Fatalf("RenderSessions lost the session:\n%s", view)
	}
}

// TestSchedulerSmoke is the short-mode control-plane smoke test (make
// ci): two tenants run tiny workloads concurrently through one scheduler
// and must produce identical end states — session namespacing keeps the
// runs from contaminating each other.
func TestSchedulerSmoke(t *testing.T) {
	_, s := sessionPlane(t, sched.Config{MaxLive: 2})
	results, err := RunConcurrentSessions(context.Background(), s,
		DefaultWorkload().Scaled(0.01), AutoPlacement(), 1, 2, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("results = %d, want 2", len(results))
	}
	if results[0].StateDigest == 0 || results[0].StateDigest != results[1].StateDigest {
		t.Fatalf("concurrent tenants diverged: %x vs %x",
			results[0].StateDigest, results[1].StateDigest)
	}
}
