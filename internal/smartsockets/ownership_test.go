package smartsockets

import (
	"bytes"
	"fmt"
	"runtime"
	"slices"
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

// hubPlayedByTest starts a factory of client-a whose hub connection's
// other end the test holds, and a listener of it on port 21000: the test
// writes the frames a hub would and reads what the factory answers.
func hubPlayedByTest(t *testing.T) (*Factory, *Listener, *vnet.Conn) {
	t.Helper()
	n := vnet.New()
	for _, h := range []string{"hub-a", "client-a"} {
		if _, err := n.AddHost(h, "siteA", vnet.Open); err != nil {
			t.Fatal(err)
		}
	}
	if err := n.AddLink("hub-a", "client-a", time.Millisecond, 1.25e9); err != nil {
		t.Fatal(err)
	}
	hl, err := n.Listen("hub-a", HubPort)
	if err != nil {
		t.Fatal(err)
	}
	conn, err := n.Dial("client-a", "hub-a", HubPort)
	if err != nil {
		t.Fatal(err)
	}
	hub, err := hl.Accept()
	if err != nil {
		t.Fatal(err)
	}
	raw, err := n.Listen("client-a", 21000)
	if err != nil {
		t.Fatal(err)
	}
	f := &Factory{
		net: n, host: "client-a", base: 20000, hubHost: "hub-a", hubConn: conn,
		listeners:   make(map[int]*Listener),
		pendingRev:  make(map[uint64]chan error),
		pendingCirc: make(map[string]chan openResult),
		pendingReg:  make(map[Address]chan struct{}),
		circuits:    make(map[string]*routedEnd),
		Timeout:     2 * time.Second,
	}
	l := &Listener{factory: f, port: 21000, raw: raw}
	f.listeners[21000] = l
	f.wg.Add(1)
	go f.hubReadLoop()
	t.Cleanup(f.Close)
	return f, l, hub
}

// mustSend and mustRecv move one frame over the played hub's connection.
func mustSend(t *testing.T, c *vnet.Conn, f *frame) {
	t.Helper()
	if err := sendFrame(c, f); err != nil {
		t.Fatal(err)
	}
}

func mustRecv(t *testing.T, c *vnet.Conn, kind byte) *frame {
	t.Helper()
	f, err := recvFrame(c)
	if err != nil {
		t.Fatal(err)
	}
	if f.Kind != kind {
		t.Fatalf("frame of kind %d, want %d", f.Kind, kind)
	}
	return f
}

// TestOwnershipKeptFrameRoutes: the factory's reader decodes every control
// frame into the one it keeps, so the route of a routed VirtualConn — the
// inbound circuit's, from its open, and the dialled one's, from its ack —
// must be the connection's own: frames decoded after them, whose routes
// name other hubs, leave both as they were.
func TestOwnershipKeptFrameRoutes(t *testing.T) {
	f, l, hub := hubPlayedByTest(t)
	peer := Address{Host: "client-b", Port: 21000, Hub: "hub-b"}
	inRoute, outRoute := []string{"hub-b", "hub-m", "hub-a"}, []string{"hub-a", "hub-n", "hub-b"}

	mustSend(t, hub, &frame{Kind: kCircuitOpen, Src: peer, Dst: l.Addr(), Circuit: "client-b:20000/1", Route: inRoute, Hop: 3})
	mustRecv(t, hub, kCircuitAck)
	dialled := make(chan *VirtualConn, 1)
	go func() {
		vc, err := f.connectRouted(peer, 0)
		if err != nil {
			t.Error(err)
		}
		dialled <- vc
	}()
	open := mustRecv(t, hub, kCircuitOpen)
	mustSend(t, hub, &frame{Kind: kCircuitAck, Src: open.Src, Dst: open.Dst, Circuit: open.Circuit, Route: outRoute})
	out := <-dialled
	if out == nil {
		t.FailNow()
	}
	// Frames whose routes are as long and name other hubs, then an open
	// nobody listens for: its nak says the reader got past all of them.
	for i := range 4 {
		other := []string{fmt.Sprint("x", i), fmt.Sprint("y", i), fmt.Sprint("z", i)}
		mustSend(t, hub, &frame{Kind: kCircuitNak, Circuit: "gone", Route: other, Hop: 1})
	}
	mustSend(t, hub, &frame{Kind: kCircuitOpen, Src: peer, Dst: Address{Host: "client-a", Port: 1}, Circuit: "client-b:20000/2", Route: []string{"q", "r", "s"}, Hop: 3})
	mustRecv(t, hub, kCircuitNak)

	in, err := l.Accept()
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(in.Route(), inRoute) || !slices.Equal(out.Route(), outRoute) {
		t.Fatalf("routes read inbound %v, dialled %v after later frames; want %v, %v", in.Route(), out.Route(), inRoute, outRoute)
	}
}

// TestOwnershipKeptFrameReverseRequest: a reverse request is served on a
// goroutine of its own while the reader decodes the next frames into the
// frame it keeps, so the request it serves must be its own copy: each of
// 64 requests sent back to back (to a port nobody listens on) is answered
// by a nak that carries its own id and route.
func TestOwnershipKeptFrameReverseRequest(t *testing.T) {
	_, _, hub := hubPlayedByTest(t)
	const n = 64
	route := func(id uint64) []string {
		return []string{fmt.Sprint("hub-", id), fmt.Sprint("via-", id), "hub-a"}
	}
	for id := uint64(1); id <= n; id++ {
		mustSend(t, hub, &frame{
			Kind: kReverseReq, Src: Address{Host: "client-b", Port: 20000, Hub: "hub-b"},
			Dst: Address{Host: "client-a", Port: 1}, ReqID: id, ReplyPort: -1, Route: route(id), Hop: 3,
		})
	}
	seen := make(map[uint64]bool)
	for range n {
		nak := mustRecv(t, hub, kCircuitNak)
		if seen[nak.ReqID] || !slices.Equal(nak.Route, route(nak.ReqID)) {
			t.Fatalf("nak for request %d (seen before: %v) carries route %v, want %v", nak.ReqID, seen[nak.ReqID], nak.Route, route(nak.ReqID))
		}
		seen[nak.ReqID] = true
	}
}

// TestOwnershipKeptFrameAdverts: a hub's reader decodes every frame into
// the one it keeps, and merge stores the adverts of a gossip frame: the
// stored adverts must be the hub's own, so a later gossip frame of the
// same shape, naming other hubs, leaves the table as it was.
func TestOwnershipKeptFrameAdverts(t *testing.T) {
	n := vnet.New()
	for _, h := range []string{"hub-a", "hub-p", "hub-s"} {
		if _, err := n.AddHost(h, h, vnet.Open); err != nil {
			t.Fatal(err)
		}
	}
	for _, p := range []string{"hub-p", "hub-s"} {
		if err := n.AddLink("hub-a", p, time.Millisecond, 1.25e9); err != nil {
			t.Fatal(err)
		}
	}
	h, err := newHub(n, "hub-a", nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(h.Stop)
	// The test plays hub-p and hub-s: each hello registers a link. hub-p's
	// gossip then reaches the hub's reader, and what was news is flooded on
	// to hub-s.
	hello := func(name string) *vnet.Conn {
		c, err := n.Dial(name, "hub-a", HubPort)
		if err != nil {
			t.Fatal(err)
		}
		mustSend(t, c, &frame{Kind: kHello, Hub: name, Adverts: []advert{{Hub: name, Seq: 1, Links: []link{{Peer: "hub-a", Latency: time.Millisecond}}}}})
		mustRecv(t, c, kGossip)
		return c
	}
	p, s := hello("hub-p"), hello("hub-s")
	ad := func(hub string, peers ...string) advert {
		a := advert{Hub: hub, Seq: 1}
		for i, p := range peers {
			a.Links = append(a.Links, link{Peer: p, Latency: time.Duration(i+1) * time.Millisecond})
		}
		return a
	}
	first := ad("hub-x", "hub-y", "hub-z")
	mustSend(t, p, &frame{Kind: kGossip, Hub: "hub-p", Adverts: []advert{first}})
	mustSend(t, p, &frame{Kind: kGossip, Hub: "hub-p", Adverts: []advert{ad("hub-w", "hub-q", "hub-r")}})
	// hub-w's advert reaching hub-s says both frames were merged.
	for done := false; !done; {
		g, err := recvFrame(s)
		if err != nil {
			t.Fatal(err)
		}
		done = slices.ContainsFunc(g.Adverts, func(a advert) bool { return a.Hub == "hub-w" })
	}
	h.mu.Lock()
	got := h.adverts["hub-x"]
	h.mu.Unlock()
	if !slices.Equal(got.Links, first.Links) {
		t.Fatalf("stored advert of hub-x reads %v after a later gossip frame, want %v", got.Links, first.Links)
	}
}

// TestOwnershipKeptRouteArray: the factory's reader keeps its frame's route
// array across frames that carry no route and decodes the next route into
// it, so every route it hands on must be a clone — a reverse request's
// (served on its own goroutine), a dialled circuit's (from its ack) and an
// inbound circuit's (from its open). Each is followed by a close that
// carries no route, then by frames whose routes, as long, name other hubs:
// all three still read as they were sent.
func TestOwnershipKeptRouteArray(t *testing.T) {
	f, l, hub := hubPlayedByTest(t)
	peer := Address{Host: "client-b", Port: 20000, Hub: "hub-b"}
	refill := func(i int) {
		mustSend(t, hub, &frame{Kind: kCircuitClose, Circuit: "gone"})
		other := []string{fmt.Sprint("x", i), fmt.Sprint("y", i), fmt.Sprint("z", i)}
		mustSend(t, hub, &frame{Kind: kCircuitNak, Circuit: "gone", Route: other, Hop: 1})
		// An open nobody listens for: its nak says the reader got this far.
		mustSend(t, hub, &frame{Kind: kCircuitOpen, Src: peer, Dst: Address{Host: "client-a", Port: 1}, Circuit: "none", Route: other, Hop: 3})
		mustRecv(t, hub, kCircuitNak)
	}

	inRoute := []string{"hub-b", "hub-m", "hub-a"}
	mustSend(t, hub, &frame{Kind: kCircuitOpen, Src: peer, Dst: l.Addr(), Circuit: "client-b:20000/1", Route: inRoute, Hop: 3})
	mustRecv(t, hub, kCircuitAck)
	refill(0)

	outRoute := []string{"hub-a", "hub-n", "hub-b"}
	dialled := make(chan *VirtualConn, 1)
	go func() {
		vc, err := f.connectRouted(peer, 0)
		if err != nil {
			t.Error(err)
		}
		dialled <- vc
	}()
	open := mustRecv(t, hub, kCircuitOpen)
	mustSend(t, hub, &frame{Kind: kCircuitAck, Src: open.Src, Dst: open.Dst, Circuit: open.Circuit, Route: outRoute})
	out := <-dialled
	if out == nil {
		t.FailNow()
	}
	refill(1)

	// Reverse requests to a port nobody listens on: each nak, built on the
	// request's goroutine while the reader decodes on, carries its route.
	const reqs = 16
	revRoute := func(id uint64) []string { return []string{fmt.Sprint("rev-", id), "hub-m", "hub-a"} }
	for id := uint64(1); id <= reqs; id++ {
		mustSend(t, hub, &frame{Kind: kReverseReq, Src: peer, Dst: Address{Host: "client-a", Port: 1}, ReqID: id, ReplyPort: -1, Route: revRoute(id), Hop: 3})
		mustSend(t, hub, &frame{Kind: kCircuitClose, Circuit: "gone"})
		mustSend(t, hub, &frame{Kind: kCircuitNak, Circuit: "gone", Route: []string{"p", "q", "r"}, Hop: 1})
	}
	for range reqs {
		nak := mustRecv(t, hub, kCircuitNak)
		if !slices.Equal(nak.Route, revRoute(nak.ReqID)) {
			t.Fatalf("nak for reverse request %d carries route %v, want %v", nak.ReqID, nak.Route, revRoute(nak.ReqID))
		}
	}
	refill(2)

	in, err := l.Accept()
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(in.Route(), inRoute) || !slices.Equal(out.Route(), outRoute) {
		t.Fatalf("routes read inbound %v, dialled %v after later frames; want %v, %v", in.Route(), out.Route(), inRoute, outRoute)
	}
}
