package vnet

import (
	"errors"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// twoHosts builds a minimal network a--b with the given policy on b.
func twoHosts(t testing.TB, bPolicy Policy) *Network {
	t.Helper()
	n := New()
	mustHost(t, n, "a", "siteA", Open)
	if _, err := n.AddHost("b", "siteB", bPolicy); err != nil {
		t.Fatal(err)
	}
	if err := n.AddLink("a", "b", time.Millisecond, 1e9); err != nil {
		t.Fatal(err)
	}
	return n
}

func mustHost(t testing.TB, n *Network, name, site string, p Policy) *Host {
	t.Helper()
	h, err := n.AddHost(name, site, p)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func TestAddHostDuplicate(t *testing.T) {
	n := New()
	mustHost(t, n, "a", "s", Open)
	if _, err := n.AddHost("a", "s", Open); err == nil {
		t.Fatal("duplicate host accepted")
	}
}

func TestAddLinkUnknownHost(t *testing.T) {
	n := New()
	mustHost(t, n, "a", "s", Open)
	if err := n.AddLink("a", "ghost", time.Millisecond, 1e9); !errors.Is(err, ErrUnknownHost) {
		t.Fatalf("err = %v, want ErrUnknownHost", err)
	}
}

func TestRouteDirect(t *testing.T) {
	n := twoHosts(t, Open)
	p, err := n.Route("a", "b")
	if err != nil {
		t.Fatal(err)
	}
	if p.Latency != time.Millisecond {
		t.Fatalf("latency %v, want 1ms", p.Latency)
	}
	if p.Bandwidth != 1e9 {
		t.Fatalf("bandwidth %v, want 1e9", p.Bandwidth)
	}
	if len(p.Hops) != 2 || p.Hops[0] != "a" || p.Hops[1] != "b" {
		t.Fatalf("hops %v", p.Hops)
	}
}

func TestRoutePicksLowestLatency(t *testing.T) {
	n := New()
	for _, h := range []string{"a", "m", "b"} {
		mustHost(t, n, h, "s", Open)
	}
	// Slow direct link, fast two-hop path.
	if err := n.AddLink("a", "b", 100*time.Millisecond, 1e9); err != nil {
		t.Fatal(err)
	}
	if err := n.AddLink("a", "m", time.Millisecond, 5e8); err != nil {
		t.Fatal(err)
	}
	if err := n.AddLink("m", "b", time.Millisecond, 2e9); err != nil {
		t.Fatal(err)
	}
	p, err := n.Route("a", "b")
	if err != nil {
		t.Fatal(err)
	}
	if p.Latency != 2*time.Millisecond {
		t.Fatalf("latency %v, want 2ms (via m)", p.Latency)
	}
	if p.Bandwidth != 5e8 {
		t.Fatalf("bottleneck bandwidth %v, want 5e8", p.Bandwidth)
	}
	if len(p.Hops) != 3 || p.Hops[1] != "m" {
		t.Fatalf("hops %v, want via m", p.Hops)
	}
}

// TestRouteTiesBreakByName: a diamond whose two paths have the same
// latency, one of them through a slow link. Every fresh network takes the
// path through the host whose name sorts first (b), so the bottleneck
// bandwidth a transfer is priced at does not depend on map order.
func TestRouteTiesBreakByName(t *testing.T) {
	for i := range 200 {
		n := New()
		for _, h := range []string{"a", "b", "c", "d"} {
			mustHost(t, n, h, "s", Open)
		}
		for _, l := range []struct {
			a, b string
			bw   float64
		}{{"a", "b", 1e9}, {"b", "d", 1e9}, {"a", "c", 1e6}, {"c", "d", 1e9}} {
			if err := n.AddLink(l.a, l.b, time.Millisecond, l.bw); err != nil {
				t.Fatal(err)
			}
		}
		p, err := n.Route("a", "d")
		if err != nil {
			t.Fatal(err)
		}
		if p.Latency != 2*time.Millisecond || p.Bandwidth != 1e9 || !slices.Equal(p.Hops, []string{"a", "b", "d"}) {
			t.Fatalf("network %d routed a->d over %v at %v (%v B/s), want over b at 1e9", i, p.Hops, p.Latency, p.Bandwidth)
		}
	}
}

func TestRouteLoopback(t *testing.T) {
	n := twoHosts(t, Open)
	p, err := n.Route("a", "a")
	if err != nil {
		t.Fatal(err)
	}
	// Loopback: > 8 Gbit/s and tiny latency per the paper's measurement.
	if p.Bandwidth < 1e9 {
		t.Fatalf("loopback bandwidth %v too small", p.Bandwidth)
	}
	if p.Latency > time.Millisecond {
		t.Fatalf("loopback latency %v too large", p.Latency)
	}
}

func TestRouteNoPath(t *testing.T) {
	n := New()
	mustHost(t, n, "a", "s", Open)
	mustHost(t, n, "b", "s", Open)
	if _, err := n.Route("a", "b"); !errors.Is(err, ErrNoRoute) {
		t.Fatalf("err = %v, want ErrNoRoute", err)
	}
}

func TestRouteThroughDownHost(t *testing.T) {
	n := New()
	for _, h := range []string{"a", "m", "b"} {
		mustHost(t, n, h, "s", Open)
	}
	if err := n.AddLink("a", "m", time.Millisecond, 1e9); err != nil {
		t.Fatal(err)
	}
	if err := n.AddLink("m", "b", time.Millisecond, 1e9); err != nil {
		t.Fatal(err)
	}
	if err := n.SetHostUp("m", false); err != nil {
		t.Fatal(err)
	}
	// Route caching must not mask the down router.
	if _, err := n.Route("a", "b"); !errors.Is(err, ErrNoRoute) {
		t.Fatalf("err = %v, want ErrNoRoute through down router", err)
	}
}

func TestPathTransferTime(t *testing.T) {
	p := Path{Latency: time.Millisecond, Bandwidth: 1e6} // 1 MB/s
	got := p.TransferTime(1e6)
	want := time.Millisecond + time.Second
	if got != want {
		t.Fatalf("transfer time %v, want %v", got, want)
	}
	if got := p.TransferTime(0); got != time.Millisecond {
		t.Fatalf("zero-byte transfer %v, want latency only", got)
	}
}

func TestDialAndMessage(t *testing.T) {
	n := twoHosts(t, Open)
	l, err := n.Listen("b", 80)
	if err != nil {
		t.Fatal(err)
	}
	conn, err := n.Dial("a", "b", 80)
	if err != nil {
		t.Fatal(err)
	}
	server, err := l.Accept()
	if err != nil {
		t.Fatal(err)
	}
	sentAt := 5 * time.Second
	arrival, err := conn.Send([]byte("hello"), sentAt)
	if err != nil {
		t.Fatal(err)
	}
	if arrival <= sentAt {
		t.Fatalf("arrival %v not after send %v", arrival, sentAt)
	}
	msg, err := server.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if string(msg.Data) != "hello" {
		t.Fatalf("payload %q", msg.Data)
	}
	if msg.Arrival != arrival {
		t.Fatalf("arrival %v != %v", msg.Arrival, arrival)
	}
	// And the reverse direction.
	if _, err := server.Send([]byte("world"), msg.Arrival); err != nil {
		t.Fatal(err)
	}
	reply, err := conn.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if string(reply.Data) != "world" {
		t.Fatalf("reply %q", reply.Data)
	}
}

func TestDialVirtualTiming(t *testing.T) {
	n := twoHosts(t, Open)
	l, err := n.Listen("b", 80)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	conn, err := n.Dial("a", "b", 80)
	if err != nil {
		t.Fatal(err)
	}
	// 1e6 bytes at 1e9 B/s = 1 ms serialization + 1 ms latency.
	arrival, err := conn.Send(make([]byte, 1e6), 0)
	if err != nil {
		t.Fatal(err)
	}
	if arrival != 2*time.Millisecond {
		t.Fatalf("arrival %v, want 2ms", arrival)
	}
}

func TestDialFirewalled(t *testing.T) {
	n := twoHosts(t, OutboundOnly)
	if _, err := n.Listen("b", 80); err != nil {
		t.Fatal(err)
	}
	_, err := n.Dial("a", "b", 80)
	if !errors.Is(err, ErrFirewalled) {
		t.Fatalf("err = %v, want ErrFirewalled", err)
	}
	if want := "vnet: connection blocked by firewall: a -> b:80 (outbound-only)"; err.Error() != want {
		t.Fatalf("err reads %q, want %q", err, want)
	}
	// The refusal is one allocation: its text is built when it is read.
	if allocs := testing.AllocsPerRun(100, func() { n.Dial("a", "b", 80) }); allocs != 1 {
		t.Errorf("a firewalled dial: %v allocations, want 1", allocs)
	}
	// But b can dial out to a.
	if _, err := n.Listen("a", 81); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Dial("b", "a", 81); err != nil {
		t.Fatalf("outbound dial from firewalled host failed: %v", err)
	}
}

func TestDialSSHOnly(t *testing.T) {
	n := twoHosts(t, SSHOnly)
	if _, err := n.Listen("b", 80); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Listen("b", SSHPort); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Dial("a", "b", 80); !errors.Is(err, ErrFirewalled) {
		t.Fatalf("dial to 80: %v, want ErrFirewalled", err)
	}
	if _, err := n.Dial("a", "b", SSHPort); err != nil {
		t.Fatalf("dial to ssh port: %v", err)
	}
}

func TestDialSameSiteBypassesFirewall(t *testing.T) {
	n := New()
	mustHost(t, n, "n1", "cluster", OutboundOnly)
	mustHost(t, n, "n2", "cluster", OutboundOnly)
	if err := n.AddLink("n1", "n2", time.Microsecond, 1e9); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Listen("n2", 80); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Dial("n1", "n2", 80); err != nil {
		t.Fatalf("intra-site dial failed: %v", err)
	}
}

func TestDialNoListener(t *testing.T) {
	n := twoHosts(t, Open)
	if _, err := n.Dial("a", "b", 9999); !errors.Is(err, ErrRefused) {
		t.Fatalf("err = %v, want ErrRefused", err)
	}
}

func TestDialDownHost(t *testing.T) {
	n := twoHosts(t, Open)
	if _, err := n.Listen("b", 80); err != nil {
		t.Fatal(err)
	}
	if err := n.SetHostUp("b", false); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Dial("a", "b", 80); !errors.Is(err, ErrHostDown) {
		t.Fatalf("err = %v, want ErrHostDown", err)
	}
}

func TestListenPortInUse(t *testing.T) {
	n := twoHosts(t, Open)
	if _, err := n.Listen("b", 80); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Listen("b", 80); !errors.Is(err, ErrPortInUse) {
		t.Fatalf("err = %v, want ErrPortInUse", err)
	}
}

func TestListenerCloseReleasesPort(t *testing.T) {
	n := twoHosts(t, Open)
	l, err := n.Listen("b", 80)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Listen("b", 80); err != nil {
		t.Fatalf("port not released: %v", err)
	}
}

func TestConnCloseUnblocksRecv(t *testing.T) {
	n := twoHosts(t, Open)
	l, err := n.Listen("b", 80)
	if err != nil {
		t.Fatal(err)
	}
	conn, err := n.Dial("a", "b", 80)
	if err != nil {
		t.Fatal(err)
	}
	server, err := l.Accept()
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := server.Recv()
		done <- err
	}()
	conn.Close()
	select {
	case err := <-done:
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("recv err = %v, want ErrClosed", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Recv did not unblock on close")
	}
	if _, err := conn.Send([]byte("x"), 0); !errors.Is(err, ErrClosed) {
		t.Fatalf("send on closed conn: %v", err)
	}
}

func TestMessageOrdering(t *testing.T) {
	n := twoHosts(t, Open)
	l, err := n.Listen("b", 80)
	if err != nil {
		t.Fatal(err)
	}
	conn, err := n.Dial("a", "b", 80)
	if err != nil {
		t.Fatal(err)
	}
	server, err := l.Accept()
	if err != nil {
		t.Fatal(err)
	}
	for i := byte(0); i < 100; i++ {
		if _, err := conn.Send([]byte{i}, 0); err != nil {
			t.Fatal(err)
		}
	}
	for i := byte(0); i < 100; i++ {
		msg, err := server.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if msg.Data[0] != i {
			t.Fatalf("message %d arrived out of order (got %d)", i, msg.Data[0])
		}
	}
}

// countingRecorder hands out one counter per "from->to/class".
type countingRecorder struct {
	mu     sync.Mutex
	counts map[string]*atomic.Int64
}

func newCountingRecorder() *countingRecorder {
	return &countingRecorder{counts: make(map[string]*atomic.Int64)}
}

func (r *countingRecorder) TrafficCounter(from, to, class string) *atomic.Int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	k := from + "->" + to + "/" + class
	if r.counts[k] == nil {
		r.counts[k] = new(atomic.Int64)
	}
	return r.counts[k]
}

// bytes reads the count of one key without making its counter.
func (r *countingRecorder) bytes(key string) int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	if c := r.counts[key]; c != nil {
		return c.Load()
	}
	return 0
}

func TestTrafficRecording(t *testing.T) {
	n := twoHosts(t, Open)
	rec := newCountingRecorder()
	n.SetRecorder(rec)
	l, err := n.Listen("b", 80)
	if err != nil {
		t.Fatal(err)
	}
	conn, err := n.Dial("a", "b", 80)
	if err != nil {
		t.Fatal(err)
	}
	conn.SetClass("ipl")
	if _, err := conn.Send(make([]byte, 42), 0); err != nil {
		t.Fatal(err)
	}
	server, err := l.Accept()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := server.Send(make([]byte, 7), 0); err != nil {
		t.Fatal(err)
	}
	if got := rec.bytes("a->b/ipl"); got != 42 {
		t.Fatalf("a->b bytes = %d, want 42", got)
	}
	if got := rec.bytes("b->a/ipl"); got != 7 {
		t.Fatalf("b->a bytes = %d, want 7 (class should propagate to peer)", got)
	}
}

func TestAddCluster(t *testing.T) {
	n := New()
	c, err := n.AddCluster(ClusterSpec{
		Name: "das4-vu", Site: "amsterdam", Nodes: 4,
		FrontendPolicy: SSHOnly, NodePolicy: OutboundOnly,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(c.NodeName) != 4 {
		t.Fatalf("size %d, want 4", len(c.NodeName))
	}
	// Nodes reach the frontend and each other (via frontend switch).
	if !n.Reachable(c.NodeName[0], c.Frontend) {
		t.Fatal("node cannot reach frontend")
	}
	if !n.Reachable(c.NodeName[0], c.NodeName[3]) {
		t.Fatal("node cannot reach sibling node")
	}
	// Intra-site dialing works despite OutboundOnly nodes.
	if _, err := n.Listen(c.NodeName[3], 80); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Dial(c.NodeName[0], c.NodeName[3], 80); err != nil {
		t.Fatalf("intra-cluster dial: %v", err)
	}
}

func TestAllowsInboundFrom(t *testing.T) {
	n := twoHosts(t, OutboundOnly)
	ok, err := n.AllowsInboundFrom("b", "a", 80)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("firewalled host reported as accepting inbound")
	}
	ok, err = n.AllowsInboundFrom("a", "b", 80)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("open host reported as refusing inbound")
	}
}

func TestReachable(t *testing.T) {
	n := twoHosts(t, Open)
	if !n.Reachable("a", "b") {
		t.Fatal("a should reach b")
	}
	if err := n.SetHostUp("b", false); err != nil {
		t.Fatal(err)
	}
	if n.Reachable("a", "b") {
		t.Fatal("down host reported reachable")
	}
	if n.Reachable("a", "ghost") {
		t.Fatal("unknown host reported reachable")
	}
}

func TestCrashHostBreaksConnections(t *testing.T) {
	n := New()
	if _, err := n.AddHost("a", "s1", Open); err != nil {
		t.Fatal(err)
	}
	if _, err := n.AddHost("b", "s2", Open); err != nil {
		t.Fatal(err)
	}
	if err := n.AddLink("a", "b", time.Millisecond, 1e9); err != nil {
		t.Fatal(err)
	}
	l, err := n.Listen("b", 100)
	if err != nil {
		t.Fatal(err)
	}
	conn, err := n.Dial("a", "b", 100)
	if err != nil {
		t.Fatal(err)
	}
	server, err := l.Accept()
	if err != nil {
		t.Fatal(err)
	}

	recvErr := make(chan error, 1)
	go func() {
		_, err := server.Recv()
		recvErr <- err
	}()
	if err := n.CrashHost("a"); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-recvErr:
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("recv after crash: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("peer recv did not unblock after crash")
	}
	if _, err := conn.Send([]byte("x"), 0); !errors.Is(err, ErrClosed) {
		t.Fatalf("send after crash: %v", err)
	}
	if _, err := n.Dial("b", "a", 1); err == nil {
		t.Fatal("dial to crashed host succeeded")
	}
	if err := n.CrashHost("ghost"); !errors.Is(err, ErrUnknownHost) {
		t.Fatalf("crash unknown host: %v", err)
	}
}

// TestListenEphemeral: Listen(host, 0) takes the first free port counting
// down from EphemeralFirst, a closed one is handed out again, and an
// explicit Listen on an ephemeral port is refused.
func TestListenEphemeral(t *testing.T) {
	n := twoHosts(t, Open)
	ephemeral := func() *Listener {
		t.Helper()
		l, err := n.Listen("a", 0)
		if err != nil {
			t.Fatal(err)
		}
		return l
	}
	first, second := ephemeral(), ephemeral()
	second.Close()
	if third := ephemeral(); first.Port() != EphemeralFirst || second.Port() != EphemeralFirst-1 || third.Port() != second.Port() {
		t.Fatalf("ephemeral ports %d, %d, then %d after closing the second; want %d, %d, %d",
			first.Port(), second.Port(), third.Port(), EphemeralFirst, EphemeralFirst-1, EphemeralFirst-1)
	}
	if _, err := n.Listen("a", EphemeralFirst-5); !errors.Is(err, ErrPortInUse) {
		t.Fatalf("explicit Listen on an ephemeral port: %v, want %v", err, ErrPortInUse)
	}
	if _, err := n.Dial("b", "a", EphemeralFirst); err != nil {
		t.Fatalf("dial an ephemeral listener: %v", err)
	}
}
