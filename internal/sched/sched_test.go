package sched

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"jungle/internal/amuse/data"
	"jungle/internal/amuse/ic"
	"jungle/internal/core"
	"jungle/internal/core/kernel"
	_ "jungle/internal/kernels"
)

// testPlane builds a scheduler over the lab testbed's daemon.
func testPlane(t *testing.T, cfg Config) (*core.Testbed, *Scheduler) {
	t.Helper()
	tb, err := core.NewLabTestbed()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(tb.Daemon.Close)
	if cfg.Recorder == nil {
		cfg.Recorder = tb.Recorder
	}
	s := New(tb.Daemon, cfg)
	t.Cleanup(s.Shutdown)
	return tb, s
}

// fakeClock is a settable lease clock.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

// TestAdmissionBackpressure: a full plane rejects non-waiting attaches
// with the structured busy error (errors.Is kernel.ErrBusy, retry-after
// hint set), bounds its admission queue, and admits a queued session the
// moment a slot frees.
func TestAdmissionBackpressure(t *testing.T) {
	_, s := testPlane(t, Config{MaxLive: 1, QueueCap: 1, RetryAfter: 250 * time.Millisecond})
	ctx := context.Background()

	if _, _, err := s.Attach(ctx, "s1", false); err != nil {
		t.Fatalf("first attach: %v", err)
	}
	// Plane full: immediate rejection with the taxonomy sentinel.
	_, _, err := s.Attach(ctx, "s2", false)
	if err == nil {
		t.Fatal("second attach admitted past MaxLive=1")
	}
	if !errors.Is(err, kernel.ErrBusy) {
		t.Fatalf("busy rejection does not unwrap to kernel.ErrBusy: %v", err)
	}
	var be *BusyError
	if !errors.As(err, &be) || be.RetryAfter != 250*time.Millisecond {
		t.Fatalf("busy rejection lacks the retry-after hint: %v", err)
	}

	// One waiter fits the queue; it must be admitted when s1 closes.
	admitted := make(chan error, 1)
	go func() {
		_, _, err := s.Attach(ctx, "s2", true)
		admitted <- err
	}()
	// Wait until the waiter is parked, then verify the queue is bounded.
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
			t.Fatal("waiter never queued")
		case <-time.After(time.Millisecond):
		}
	}
	if _, _, err := s.Attach(ctx, "s3", true); !errors.Is(err, kernel.ErrBusy) {
		t.Fatalf("attach past the queue bound: got %v, want busy", err)
	}

	if err := s.Close("s1"); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-admitted:
		if err != nil {
			t.Fatalf("queued attach failed after slot freed: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("queued attach never admitted after slot freed")
	}
	if st, err := s.Heartbeat("s2"); err != nil || st != StateRunning {
		t.Fatalf("admitted session state = %v, %v; want running", st, err)
	}
}

// TestLeaseReapAndResume: a session idle past its lease is evicted
// through its evictor, parks as preempted with the snapshot, frees its
// live slot, and a re-attach resumes it (resumed=true, snapshot intact).
func TestLeaseReapAndResume(t *testing.T) {
	clk := &fakeClock{now: time.Unix(1000, 0)}
	_, s := testPlane(t, Config{MaxLive: 1, LeaseTTL: time.Minute, Now: clk.Now})
	ctx := context.Background()

	sess, resumed, err := s.Attach(ctx, "tenant", false)
	if err != nil || resumed {
		t.Fatalf("attach: resumed=%v err=%v", resumed, err)
	}
	snapshot := []byte("run-state-at-eviction")
	sess.SetEvictor(func(context.Context) ([]byte, error) { return snapshot, nil })

	// Lease still fresh: nothing reaps.
	if reaped, err := s.ReapIdle(ctx); err != nil || len(reaped) != 0 {
		t.Fatalf("fresh lease reaped: %v, %v", reaped, err)
	}
	clk.Advance(2 * time.Minute)
	reaped, err := s.ReapIdle(ctx)
	if err != nil || len(reaped) != 1 || reaped[0] != "tenant" {
		t.Fatalf("reap = %v, %v; want [tenant]", reaped, err)
	}
	if st := sess.State(); st != StatePreempted {
		t.Fatalf("state after reap = %v, want preempted", st)
	}

	// The freed slot admits another tenant immediately.
	if _, _, err := s.Attach(ctx, "other", false); err != nil {
		t.Fatalf("attach after reap: %v", err)
	}
	if err := s.Close("other"); err != nil {
		t.Fatal(err)
	}

	// Re-attach resumes from the eviction snapshot.
	sess2, resumed, err := s.Attach(ctx, "tenant", false)
	if err != nil || !resumed {
		t.Fatalf("re-attach: resumed=%v err=%v", resumed, err)
	}
	if string(sess2.Snapshot()) != string(snapshot) {
		t.Fatalf("snapshot = %q, want %q", sess2.Snapshot(), snapshot)
	}
	if rec := s.Recorder(); rec != nil {
		st, ok := rec.Sessions()["tenant"]
		if !ok || st.Evictions != 1 || st.Resumes != 1 {
			t.Fatalf("session accounting = %+v, ok=%v; want 1 eviction, 1 resume", st, ok)
		}
	}
}

// TestGatewaySessions: many concurrent client connections, each bound to
// the session it attached; busy rejections travel the wire as CodeBusy
// with the structured retry-after payload.
func TestGatewaySessions(t *testing.T) {
	_, s := testPlane(t, Config{
		MaxLive: 2, RetryAfter: 125 * time.Millisecond,
		Run: func(ctx context.Context, sess *Session, payload []byte) ([]byte, error) {
			return append([]byte(sess.ID()+":"), payload...), nil
		},
	})
	g := &Gateway{Sched: s}
	dial := func() *Client {
		client, server := net.Pipe()
		go g.ServeConn(server)
		c := NewClient(client)
		t.Cleanup(func() { c.Close() })
		return c
	}

	// Two concurrent connections, two sessions.
	c1, c2 := dial(), dial()
	if _, err := c1.Attach("alpha", false); err != nil {
		t.Fatalf("attach alpha: %v", err)
	}
	if _, err := c2.Attach("beta", false); err != nil {
		t.Fatalf("attach beta: %v", err)
	}

	// Each connection runs in its own namespace.
	out, err := c1.Run([]byte("work"))
	if err != nil || string(out) != "alpha:work" {
		t.Fatalf("run on alpha = %q, %v", out, err)
	}
	out, err = c2.Run([]byte("work"))
	if err != nil || string(out) != "beta:work" {
		t.Fatalf("run on beta = %q, %v", out, err)
	}

	// A third tenant hits admission control through the wire.
	c3 := dial()
	_, err = c3.Attach("gamma", false)
	if !errors.Is(err, kernel.ErrBusy) {
		t.Fatalf("wire busy rejection: got %v, want kernel.ErrBusy", err)
	}
	var be *BusyError
	if !errors.As(err, &be) || be.RetryAfter != 125*time.Millisecond {
		t.Fatalf("wire busy rejection lost the retry-after hint: %v", err)
	}

	// A connection cannot address another connection's session.
	if err := c1.do(core.MethodSessionRun, core.SessionRunArgs{Session: "beta"}, &core.SessionRunReply{}); err == nil {
		t.Fatal("cross-session op through a bound connection succeeded")
	}

	// Close through the wire frees the slot for gamma, and says so.
	if st, err := c1.Detach(true); err != nil || st != string(StateClosed) {
		t.Fatalf("detach alpha = %q, %v; want %q", st, err, StateClosed)
	}
	if _, err := c3.Attach("gamma", false); err != nil {
		t.Fatalf("attach gamma after slot freed: %v", err)
	}
	var st core.SessionStatusReply
	if err := c3.do(core.MethodSessionStatus, core.SessionStatusArgs{}, &st); err != nil || st.State != string(StateRunning) || st.Live != 2 {
		t.Fatalf("gamma status = %+v, %v", st, err)
	}
	if err := c3.do(core.MethodSessionHeartbeat, core.SessionHeartbeatArgs{}, nil); err != nil {
		t.Fatalf("heartbeat: %v", err)
	}
}

// TestGatewayAnswersEveryFrame: every frame gets a structured reply, and
// the connection serves on. A frame that does not decode is a bad method;
// one that decodes to a method that is not a session_ op — a zero-filled
// frame decodes to method "" — reaches dispatch's no-such-method default.
func TestGatewayAnswersEveryFrame(t *testing.T) {
	_, s := testPlane(t, Config{})
	g := &Gateway{Sched: s}
	client, server := net.Pipe()
	go g.ServeConn(server)
	c := NewClient(client)
	defer c.Close()

	for _, tc := range []struct {
		name    string
		payload []byte
		want    string
	}{
		{"does not decode", []byte{0x42, 0x00, 0x13, 0x37}, "undecodable envelope"},
		{"zero-filled frame", make([]byte, 1<<10), `no such method: ""`},
		{"not a session method", kernel.Encode(Envelope{Method: "get_state", Body: []byte{1, 2, 3}}), `no such method: "get_state"`},
	} {
		if err := writeFrame(c.w, tc.payload); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		payload, err := readFrame(c.r)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		var rf ReplyFrame
		if err := kernel.Decode(payload, &rf); err != nil {
			t.Fatalf("%s: the reply is not a reply frame: %v", tc.name, err)
		}
		if kernel.Code(rf.Code) != kernel.CodeBadMethod || !strings.Contains(rf.Err, tc.want) {
			t.Fatalf("%s: reply code %d %q, want %d naming %q", tc.name, rf.Code, rf.Err, kernel.CodeBadMethod, tc.want)
		}
	}
	if _, err := c.Attach("after", false); err != nil {
		t.Fatalf("attach after the refused frames: %v", err)
	}
}

// TestGatewayForgedLengthSizesNoAllocation: a header that claims 256 MiB,
// then the end of the stream, is an error, and the gateway allocates as the
// body's bytes arrive, not what the header claims.
func TestGatewayForgedLengthSizesNoAllocation(t *testing.T) {
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], 256<<20)
	conn := struct {
		io.Reader
		io.Writer
	}{bytes.NewReader(hdr[:]), io.Discard}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err := (&Gateway{}).ServeConn(conn)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Error("a frame cut short after its header served as a clean end of stream")
	}
	if n := after.TotalAlloc - before.TotalAlloc; n >= 16<<20 {
		t.Errorf("a forged 256 MiB length cost %d MiB of allocation, want under 16", n>>20)
	}
}

// TestGenericSnapshotResumes: a session that installed no evictor is
// evicted through the generic whole-simulation manifest; the snapshot it
// parks with decodes, and ResumeSim continues from it to exactly the state
// an undisturbed run reaches.
func TestGenericSnapshotResumes(t *testing.T) {
	clk := &fakeClock{now: time.Unix(1000, 0)}
	_, s := testPlane(t, Config{MaxLive: 1, LeaseTTL: time.Minute, Now: clk.Now})
	ctx := context.Background()
	const t1, t2 = 1.0 / 16, 1.0 / 8
	start := func(id string) (*Session, *core.Gravity) {
		t.Helper()
		sess, _, err := s.Attach(ctx, id, false)
		if err != nil {
			t.Fatal(err)
		}
		g, err := sess.NewSim(ctx, nil).NewGravity(ctx,
			core.WorkerSpec{Resource: "desktop", Channel: core.ChannelMPI}, core.GravityOptions{Eps: 0.01})
		if err != nil {
			t.Fatal(err)
		}
		if err := g.SetParticles(ic.Plummer(64, 7)); err != nil {
			t.Fatal(err)
		}
		if err := g.EvolveTo(ctx, t1); err != nil {
			t.Fatal(err)
		}
		return sess, g
	}
	finish := func(g *core.Gravity) (pos, vel []data.Vec3) {
		t.Helper()
		if err := g.EvolveTo(ctx, t2); err != nil {
			t.Fatal(err)
		}
		st, err := g.GetState(ctx, data.AttrPos, data.AttrVel)
		if err != nil {
			t.Fatal(err)
		}
		return st.Vec(data.AttrPos), st.Vec(data.AttrVel)
	}

	_, g := start("straight")
	wantPos, wantVel := finish(g)
	if err := s.Close("straight"); err != nil {
		t.Fatal(err)
	}

	sess, _ := start("evicted")
	clk.Advance(2 * time.Minute)
	if reaped, err := s.ReapIdle(ctx); err != nil || len(reaped) != 1 {
		t.Fatalf("reap = %v, %v; want [evicted]", reaped, err)
	}
	if sess.Sim() != nil {
		t.Fatal("evicted session still holds its simulation")
	}
	sess, resumed, err := s.Attach(ctx, "evicted", false)
	if err != nil || !resumed {
		t.Fatalf("re-attach: resumed=%v err=%v", resumed, err)
	}
	man := new(core.Manifest)
	if err := kernel.Decode(sess.Snapshot(), man); err != nil {
		t.Fatalf("generic snapshot does not decode: %v", err)
	}
	_, models, err := sess.ResumeSim(ctx, nil, man)
	if err != nil || len(models) != 1 {
		t.Fatalf("resume: %d models, %v", len(models), err)
	}
	gotPos, gotVel := finish(models[0].AsGravity())
	if !slices.Equal(gotPos, wantPos) || !slices.Equal(gotVel, wantVel) {
		t.Fatal("resumed run diverged from the undisturbed one")
	}
}
