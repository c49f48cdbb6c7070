package vnet

import (
	"sync"
	"testing"
)

// dialPair opens a -> b on port and returns both ends.
func dialPair(t testing.TB, n *Network, port int) (*Conn, *Conn) {
	t.Helper()
	l, err := n.Listen("b", port)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	conn, err := n.Dial("a", "b", port)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := l.Accept()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return conn, srv
}

func send(t testing.TB, c *Conn, size int) {
	t.Helper()
	if _, err := c.Send(make([]byte, size), 0); err != nil {
		t.Fatal(err)
	}
}

// TestCellReuseAcrossRecorderSwap: a live connection's cell follows the
// network's recorder — bytes sent after a swap go to the new recorder,
// after a nil one nowhere — and a recorder swapped out keeps its counts.
// A connection that never had its class set counts under "".
func TestCellReuseAcrossRecorderSwap(t *testing.T) {
	n := twoHosts(t, Open)
	a, b := newCountingRecorder(), newCountingRecorder()
	n.SetRecorder(a)
	conn, srv := dialPair(t, n, 80)
	bare, _ := dialPair(t, n, 81)
	conn.SetClass("ipl")
	send(t, conn, 10)
	send(t, srv, 1)
	send(t, bare, 3)
	n.SetRecorder(b)
	send(t, conn, 20)
	send(t, srv, 2)
	send(t, bare, 5)
	n.SetRecorder(nil)
	send(t, conn, 40)
	send(t, bare, 7)
	for _, c := range []struct {
		rec  *countingRecorder
		key  string
		want int64
	}{
		{a, "a->b/ipl", 10}, {a, "b->a/ipl", 1}, {a, "a->b/", 3},
		{b, "a->b/ipl", 20}, {b, "b->a/ipl", 2}, {b, "a->b/", 5},
	} {
		if got := c.rec.bytes(c.key); got != c.want {
			t.Errorf("%s: %d bytes, want %d", c.key, got, c.want)
		}
	}
	n.SetRecorder(a)
	send(t, conn, 80)
	if got := a.bytes("a->b/ipl"); got != 90 {
		t.Errorf("re-installed recorder: %d bytes, want 90", got)
	}
}

// TestCellReuseAfterSetClass: bytes sent after a class change count under
// the new class, on both ends, and the old class keeps what it had.
func TestCellReuseAfterSetClass(t *testing.T) {
	n := twoHosts(t, Open)
	rec := newCountingRecorder()
	n.SetRecorder(rec)
	conn, srv := dialPair(t, n, 80)
	conn.SetClass("hub")
	send(t, conn, 10)
	send(t, srv, 1)
	conn.SetClass("ipl")
	send(t, conn, 20)
	send(t, srv, 2)
	want := map[string]int64{"a->b/hub": 10, "b->a/hub": 1, "a->b/ipl": 20, "b->a/ipl": 2}
	for key, w := range want {
		if got := rec.bytes(key); got != w {
			t.Errorf("%s: %d bytes, want %d", key, got, w)
		}
	}
}

// TestCellReuseConcurrentSenders: senders on many connections count into
// shared cells while the recorder is swapped under them; no byte is lost
// or counted twice (run under -race, it is the cells' thread-safety test).
func TestCellReuseConcurrentSenders(t *testing.T) {
	const conns, msgs = 8, 500
	n := twoHosts(t, Open)
	a, b := newCountingRecorder(), newCountingRecorder()
	n.SetRecorder(a)
	var senders []*Conn
	for i := range conns {
		conn, _ := dialPair(t, n, 100+i)
		conn.SetClass("ipl")
		senders = append(senders, conn)
	}
	var wg sync.WaitGroup
	for _, c := range senders {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range msgs {
				if _, err := c.Send(make([]byte, 3), 0); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	for i := range 50 {
		n.SetRecorder([]TrafficRecorder{a, b}[i%2])
	}
	wg.Wait()
	if got := a.bytes("a->b/ipl") + b.bytes("a->b/ipl"); got != conns*msgs*3 {
		t.Fatalf("%d bytes counted, want %d", got, conns*msgs*3)
	}
}

// TestSendAllocGate: with a recorder installed, a message costs no
// allocation to count: the cell was resolved when the class was set.
func TestSendAllocGate(t *testing.T) {
	n := twoHosts(t, Open)
	rec := newCountingRecorder()
	n.SetRecorder(rec)
	conn, srv := dialPair(t, n, 80)
	conn.SetClass("ipl")
	msg := make([]byte, 64)
	round := func() {
		if _, err := conn.Send(msg, 0); err != nil {
			t.Fatal(err)
		}
		if _, err := srv.Recv(); err != nil {
			t.Fatal(err)
		}
	}
	round() // grows the connection's queues
	if allocs := testing.AllocsPerRun(100, round); allocs != 0 {
		t.Fatalf("a counted message: %.1f allocations, want 0", allocs)
	}
	if got := rec.bytes("a->b/ipl"); got != 102*64 { // one round, AllocsPerRun's warm-up and its 100
		t.Fatalf("%d bytes counted, want %d", got, 102*64)
	}
}
