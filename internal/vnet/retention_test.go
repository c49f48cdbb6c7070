package vnet

import (
	"errors"
	"runtime"
	"testing"
	"time"
)

// liveHeap returns the bytes still allocated after a full collection.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// tracked returns how many live connections the network indexes for host.
func tracked(n *Network, host string) int {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return len(n.conns[host])
}

// TestRetentionConnForgetsDelivered: a connection that has delivered 64 MiB
// holds none of it while still open, and a closed connection leaves the
// network's index.
func TestRetentionConnForgetsDelivered(t *testing.T) {
	n := twoHosts(t, Open)
	l, err := n.Listen("b", 100)
	if err != nil {
		t.Fatal(err)
	}
	conn, err := n.Dial("a", "b", 100)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := l.Accept()
	if err != nil {
		t.Fatal(err)
	}
	base := liveHeap()
	const msgs, size = 64, 1 << 20
	for i := 0; i < msgs; i++ {
		if _, err := conn.Send(make([]byte, size), 0); err != nil {
			t.Fatal(err)
		}
	}
	if held := liveHeap() - base; held < msgs*size {
		t.Fatalf("queued %d MiB but only %d bytes are live: the test measures nothing", msgs, held)
	}
	for i := 0; i < msgs; i++ {
		if _, err := srv.Recv(); err != nil {
			t.Fatal(err)
		}
	}
	if after := liveHeap(); after > base+2<<20 {
		t.Fatalf("open conn retains %d KiB after delivering everything", (after-base)>>10)
	}

	if tracked(n, "a") != 1 || tracked(n, "b") != 1 {
		t.Fatalf("live conn indexed %d/%d times, want once per host", tracked(n, "a"), tracked(n, "b"))
	}
	srv.Close() // the accepting end closes: the dialer-side entry must go too
	if tracked(n, "a") != 0 || tracked(n, "b") != 0 {
		t.Fatalf("closed conn still indexed: a=%d b=%d", tracked(n, "a"), tracked(n, "b"))
	}
	if _, err := conn.Send(nil, 0); !errors.Is(err, ErrClosed) {
		t.Fatalf("send on closed conn: %v", err)
	}

	// A dial refused because the listener closed under it is not indexed.
	l.Close()
	if _, err := n.Dial("a", "b", 100); err == nil {
		t.Fatal("dial to a closed listener succeeded")
	}
	if tracked(n, "a") != 0 {
		t.Fatalf("refused dial left %d conns indexed", tracked(n, "a"))
	}
}

// TestRetentionCrashHostClosesExactlyTheLive: CrashHost breaks every live
// connection with an endpoint on the host — each indexed once, loopback
// included — and only those.
func TestRetentionCrashHostClosesExactlyTheLive(t *testing.T) {
	n := twoHosts(t, Open)
	mustHost(t, n, "c", "siteC", Open)
	if err := n.AddLink("b", "c", time.Millisecond, 1e9); err != nil {
		t.Fatal(err)
	}
	for _, h := range []string{"a", "b", "c"} {
		if _, err := n.Listen(h, 100); err != nil {
			t.Fatal(err)
		}
	}
	dial := func(from, to string) *Conn {
		t.Helper()
		c, err := n.Dial(from, to, 100)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	ab, ba, aa, bc := dial("a", "b"), dial("b", "a"), dial("a", "a"), dial("b", "c")
	gone := dial("a", "b")
	gone.Close() // closed before the crash: already forgotten
	if got := tracked(n, "a"); got != 3 {
		t.Fatalf("host a indexes %d conns, want 3 (a->b, b->a, a->a once)", got)
	}
	if err := n.CrashHost("a"); err != nil {
		t.Fatal(err)
	}
	for name, c := range map[string]*Conn{"a->b": ab, "b->a": ba, "a->a": aa} {
		if _, err := c.Send(nil, 0); !errors.Is(err, ErrClosed) {
			t.Errorf("%s survived the crash: %v", name, err)
		}
	}
	if _, err := bc.Send(nil, 0); err != nil {
		t.Errorf("b->c broken by a crash of a: %v", err)
	}
	if tracked(n, "a") != 0 || tracked(n, "b") != 1 || tracked(n, "c") != 1 {
		t.Fatalf("after crash: a=%d b=%d c=%d, want 0/1/1", tracked(n, "a"), tracked(n, "b"), tracked(n, "c"))
	}
}
