package smartsockets

import (
	"bytes"
	"runtime"
	"testing"
	"time"

	"jungle/internal/vnet"
	"jungle/internal/wire"
)

// loopPair returns the two ends of a vnet connection on a one-host network.
func loopPair(t *testing.T) (dialer, acceptor *vnet.Conn) {
	t.Helper()
	n := vnet.New()
	if _, err := n.AddHost("h", "s", vnet.Open); err != nil {
		t.Fatal(err)
	}
	l, err := n.Listen("h", 1)
	if err != nil {
		t.Fatal(err)
	}
	dialer, err = n.Dial("h", "h", 1)
	if err != nil {
		t.Fatal(err)
	}
	acceptor, err = l.Accept()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { dialer.Close() })
	return dialer, acceptor
}

// TestRoutedSendAllocGate: routedEnd.send encodes its data frame into a
// slice presized by frameOverhead, so a routed send costs the frame's one
// allocation whatever the payload size.
func TestRoutedSendAllocGate(t *testing.T) {
	out, in := loopPair(t)
	e := &routedEnd{factory: &Factory{hubConn: out}, key: "client-a:20000/12"}
	for _, size := range []int{0, 256, 1 << 20} {
		payload := make([]byte, size)
		if allocs := testing.AllocsPerRun(10, func() {
			e.send(payload, 0)
			in.Recv()
		}); allocs != 1 {
			t.Errorf("routed send of %d bytes: %v allocations, want the frame alone", size, allocs)
		}
	}
}

// TestOwnershipSendFrameClones: sendFrame encodes into pooled scratch and
// must hand vnet a slice of its own — a frame still queued when the next
// one reuses the scratch keeps its bytes.
func TestOwnershipSendFrameClones(t *testing.T) {
	out, in := loopPair(t)
	const n = 32
	for i := 0; i < n; i++ {
		f := &frame{Kind: kRegister, Src: Address{Host: "host", Port: i}, Payload: bytes.Repeat([]byte{byte(i)}, 64)}
		if err := sendFrame(out, f); err != nil {
			t.Fatal(err)
		}
		// The next encode reuses the scratch this frame was built in.
		wire.Marshal(&frame{Kind: 0xFF, Payload: bytes.Repeat([]byte{0xFF}, 256)})
	}
	for i := 0; i < n; i++ {
		f, err := recvFrame(in)
		if err != nil {
			t.Fatal(err)
		}
		if f.Src.Port != i || !bytes.Equal(f.Payload, bytes.Repeat([]byte{byte(i)}, 64)) {
			t.Fatalf("frame %d arrived as port %d payload %x…", i, f.Src.Port, f.Payload[:4])
		}
	}
}

// hubChain builds client-a — hub-a — [hub-m —] hub-b — client-b with both
// clients firewalled, so a connection between them is a circuit relayed by
// every hub of the chain. With a middle hub the end hubs are firewalled
// too and can only reach each other through it.
func hubChain(t *testing.T, middle bool) (conn, srv *VirtualConn) {
	t.Helper()
	n := vnet.New()
	endPolicy, hubs := vnet.Open, []string{"hub-a", "hub-b"}
	if middle {
		endPolicy, hubs = vnet.OutboundOnly, []string{"hub-a", "hub-m", "hub-b"}
	}
	for _, h := range []struct {
		name, site string
		p          vnet.Policy
	}{
		{"hub-a", "siteA", endPolicy}, {"client-a", "siteA", vnet.OutboundOnly},
		{"hub-b", "siteB", endPolicy}, {"client-b", "siteB", vnet.OutboundOnly},
		{"hub-m", "siteM", vnet.Open},
	} {
		if _, err := n.AddHost(h.name, h.site, h.p); err != nil {
			t.Fatal(err)
		}
	}
	links := [][2]string{{"hub-a", "client-a"}, {"hub-b", "client-b"}, {"hub-a", "hub-b"}}
	if middle {
		links[2] = [2]string{"hub-a", "hub-m"}
		links = append(links, [2]string{"hub-m", "hub-b"})
	}
	for _, l := range links {
		if err := n.AddLink(l[0], l[1], time.Millisecond, 1.25e9); err != nil {
			t.Fatal(err)
		}
	}
	ov, err := StartHubs(n, hubs)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ov.Stop)
	fa := newFactory(t, n, "client-a", 20000, "hub-a")
	fb := newFactory(t, n, "client-b", 20000, "hub-b")
	l, err := fb.Listen(21000)
	if err != nil {
		t.Fatal(err)
	}
	if conn, err = fa.Connect(l.Addr(), 0); err != nil {
		t.Fatal(err)
	}
	if conn.Type() != Routed || len(conn.Route()) != len(hubs) {
		t.Fatalf("conn is %v over %v, want routed over %d hubs", conn.Type(), conn.Route(), len(hubs))
	}
	if srv, err = l.Accept(); err != nil {
		t.Fatal(err)
	}
	return conn, srv
}

// TestRelayHopAllocGate: a hub forwards circuit data as it came, and Send
// takes the slice, so a relay hop allocates nothing — a ping-pong over
// three hubs costs what it costs over two.
func TestRelayHopAllocGate(t *testing.T) {
	perTrip := func(middle bool) float64 {
		conn, srv := hubChain(t, middle)
		go func() {
			for {
				m, err := srv.Recv()
				if err != nil || srv.Send(m.Data, m.Arrival) != nil {
					return
				}
			}
		}()
		pingPong := func() {
			if err := conn.Send(make([]byte, 256), 0); err != nil {
				t.Fatal(err)
			}
			if _, err := conn.Recv(); err != nil {
				t.Fatal(err)
			}
		}
		pingPong() // first use sizes the queues
		allocs := testing.AllocsPerRun(200, pingPong)
		conn.Close()
		return allocs
	}
	two, three := perTrip(false), perTrip(true)
	if three != two {
		t.Errorf("ping-pong over 3 hubs: %v allocs, over 2 hubs: %v — the extra relay hop allocates", three, two)
	}
}

// TestRetentionRoutedConnForgetsDelivered: 64 MiB through a routed circuit
// (factory, two hubs, factory) leaves nothing behind in any queue on the
// way while the circuit is still open.
func TestRetentionRoutedConnForgetsDelivered(t *testing.T) {
	conn, srv := hubChain(t, false)
	liveHeap := func() uint64 {
		runtime.GC()
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	base := liveHeap()
	const msgs, size = 64, 1 << 20
	for i := 0; i < msgs; i++ {
		if err := conn.Send(make([]byte, size), 0); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < msgs; i++ {
		if m, err := srv.Recv(); err != nil || len(m.Data) != size {
			t.Fatalf("message %d: %d bytes, %v", i, len(m.Data), err)
		}
	}
	if after := liveHeap(); after > base+2<<20 {
		t.Fatalf("open routed conn retains %d KiB after delivering everything", (after-base)>>10)
	}
	if err := conn.Send([]byte("still open"), 0); err != nil {
		t.Fatal(err)
	}
}
