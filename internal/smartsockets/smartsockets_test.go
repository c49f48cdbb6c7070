package smartsockets

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"jungle/internal/vnet"
)

// jungleNet builds a two-site network: site A with an open hub host and a
// client host with the given policy; site B likewise. Sites are linked
// hub-to-hub; clients connect via their site hubs.
type testNet struct {
	net            *vnet.Network
	hubA, hubB     string
	clientA, clntB string
	overlay        *Overlay
}

func newTestNet(t *testing.T, polA, polB vnet.Policy) *testNet {
	t.Helper()
	n := vnet.New()
	mustAdd := func(name, site string, p vnet.Policy) {
		t.Helper()
		if _, err := n.AddHost(name, site, p); err != nil {
			t.Fatal(err)
		}
	}
	mustAdd("hub-a", "siteA", vnet.Open)
	mustAdd("client-a", "siteA", polA)
	mustAdd("hub-b", "siteB", vnet.Open)
	mustAdd("client-b", "siteB", polB)
	mustLink := func(a, b string, lat time.Duration, bw float64) {
		t.Helper()
		if err := n.AddLink(a, b, lat, bw); err != nil {
			t.Fatal(err)
		}
	}
	mustLink("hub-a", "client-a", 100*time.Microsecond, 1.25e9)
	mustLink("hub-b", "client-b", 100*time.Microsecond, 1.25e9)
	mustLink("hub-a", "hub-b", 5*time.Millisecond, 1.25e8)
	ov, err := StartHubs(n, []string{"hub-a", "hub-b"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ov.Stop)
	return &testNet{net: n, hubA: "hub-a", hubB: "hub-b", clientA: "client-a", clntB: "client-b", overlay: ov}
}

func newFactory(t *testing.T, n *vnet.Network, host string, base int, hub string) *Factory {
	t.Helper()
	f, err := NewFactory(n, host, base, hub)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(f.Close)
	return f
}

// exchange verifies a round trip over the virtual connection.
func exchange(t *testing.T, client *VirtualConn, l *Listener) {
	t.Helper()
	if err := client.Send([]byte("ping"), time.Second); err != nil {
		t.Fatalf("send: %v", err)
	}
	server, err := l.Accept()
	if err != nil {
		t.Fatalf("accept: %v", err)
	}
	msg, err := server.Recv()
	if err != nil {
		t.Fatalf("server recv: %v", err)
	}
	if string(msg.Data) != "ping" {
		t.Fatalf("server got %q", msg.Data)
	}
	if msg.Arrival <= time.Second {
		t.Fatalf("arrival %v not after virtual send time 1s", msg.Arrival)
	}
	if err := server.Send([]byte("pong"), msg.Arrival); err != nil {
		t.Fatalf("server send: %v", err)
	}
	reply, err := client.Recv()
	if err != nil {
		t.Fatalf("client recv: %v", err)
	}
	if string(reply.Data) != "pong" {
		t.Fatalf("client got %q", reply.Data)
	}
	if reply.Arrival <= msg.Arrival {
		t.Fatalf("reply arrival %v not after %v", reply.Arrival, msg.Arrival)
	}
}

func TestAddressRoundTrip(t *testing.T) {
	a := Address{Host: "das4-vu.fe", Port: 17878}
	got, err := ParseAddress(a.String())
	if err != nil {
		t.Fatal(err)
	}
	if got != a {
		t.Fatalf("round trip %v != %v", got, a)
	}
	if _, err := ParseAddress("no-port"); err == nil {
		t.Fatal("parsed address without port")
	}
	if _, err := ParseAddress("host:abc"); err == nil {
		t.Fatal("parsed address with non-numeric port")
	}
}

func TestDirectConnection(t *testing.T) {
	tn := newTestNet(t, vnet.Open, vnet.Open)
	fa := newFactory(t, tn.net, tn.clientA, 20000, tn.hubA)
	fb := newFactory(t, tn.net, tn.clntB, 20000, tn.hubB)
	l, err := fb.Listen(21000)
	if err != nil {
		t.Fatal(err)
	}
	conn, err := fa.Connect(l.Addr(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if conn.Type() != Direct {
		t.Fatalf("conn type %v, want direct", conn.Type())
	}
	if conn.EstablishedAt() <= time.Second {
		t.Fatalf("established %v, want after 1s", conn.EstablishedAt())
	}
	exchange(t, conn, l)
	if s := fa.Stats(); s.Direct != 1 || s.Reverse != 0 || s.Routed != 0 {
		t.Fatalf("stats %+v", s)
	}
}

func TestReverseConnection(t *testing.T) {
	// Target B is firewalled (outbound only): direct dial fails, the
	// reverse request travels A-hub -> B-hub -> B, and B dials back.
	tn := newTestNet(t, vnet.Open, vnet.OutboundOnly)
	fa := newFactory(t, tn.net, tn.clientA, 20000, tn.hubA)
	fb := newFactory(t, tn.net, tn.clntB, 20000, tn.hubB)
	l, err := fb.Listen(21000)
	if err != nil {
		t.Fatal(err)
	}
	conn, err := fa.Connect(l.Addr(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if conn.Type() != Reverse {
		t.Fatalf("conn type %v, want reverse", conn.Type())
	}
	exchange(t, conn, l)
	if s := fa.Stats(); s.Reverse != 1 {
		t.Fatalf("stats %+v", s)
	}
	// The overlay round trip plus dial-back must cost virtual time beyond
	// the WAN latency.
	if conn.EstablishedAt() < time.Second+10*time.Millisecond {
		t.Fatalf("reverse established %v, want >= 1s + overlay round trip", conn.EstablishedAt())
	}
}

func TestRoutedConnection(t *testing.T) {
	// Both ends firewalled: only hub relaying works.
	tn := newTestNet(t, vnet.OutboundOnly, vnet.OutboundOnly)
	fa := newFactory(t, tn.net, tn.clientA, 20000, tn.hubA)
	fb := newFactory(t, tn.net, tn.clntB, 20000, tn.hubB)
	l, err := fb.Listen(21000)
	if err != nil {
		t.Fatal(err)
	}
	conn, err := fa.Connect(l.Addr(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if conn.Type() != Routed {
		t.Fatalf("conn type %v, want routed", conn.Type())
	}
	exchange(t, conn, l)
	if s := fa.Stats(); s.Routed != 1 {
		t.Fatalf("stats %+v", s)
	}
}

func TestRoutedBothDirections(t *testing.T) {
	tn := newTestNet(t, vnet.OutboundOnly, vnet.OutboundOnly)
	fa := newFactory(t, tn.net, tn.clientA, 20000, tn.hubA)
	fb := newFactory(t, tn.net, tn.clntB, 20000, tn.hubB)
	l, err := fb.Listen(21000)
	if err != nil {
		t.Fatal(err)
	}
	conn, err := fa.Connect(l.Addr(), 0)
	if err != nil {
		t.Fatal(err)
	}
	server, err := l.Accept()
	if err != nil {
		t.Fatal(err)
	}
	// Many messages in both directions stay ordered and intact.
	for i := 0; i < 20; i++ {
		if err := conn.Send([]byte{byte(i)}, 0); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 20; i++ {
		m, err := server.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if m.Data[0] != byte(i) {
			t.Fatalf("routed message %d out of order: got %d", i, m.Data[0])
		}
	}
	if err := server.Send([]byte("back"), 0); err != nil {
		t.Fatal(err)
	}
	m, err := conn.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if string(m.Data) != "back" {
		t.Fatalf("reverse payload %q", m.Data)
	}
}

func TestRoutedClose(t *testing.T) {
	tn := newTestNet(t, vnet.OutboundOnly, vnet.OutboundOnly)
	fa := newFactory(t, tn.net, tn.clientA, 20000, tn.hubA)
	fb := newFactory(t, tn.net, tn.clntB, 20000, tn.hubB)
	l, err := fb.Listen(21000)
	if err != nil {
		t.Fatal(err)
	}
	conn, err := fa.Connect(l.Addr(), 0)
	if err != nil {
		t.Fatal(err)
	}
	server, err := l.Accept()
	if err != nil {
		t.Fatal(err)
	}
	if err := conn.Close(); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := server.Recv()
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, vnet.ErrClosed) {
			t.Fatalf("recv after close: %v, want ErrClosed", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("server recv did not unblock after close")
	}
}

func TestConnectNoListener(t *testing.T) {
	tn := newTestNet(t, vnet.Open, vnet.Open)
	fa := newFactory(t, tn.net, tn.clientA, 20000, tn.hubA)
	newFactory(t, tn.net, tn.clntB, 20000, tn.hubB)
	_, err := fa.Connect(Address{Host: tn.clntB, Port: 29999, Hub: tn.hubB}, 0)
	if !errors.Is(err, ErrNoListener) {
		t.Fatalf("err = %v, want ErrNoListener", err)
	}
}

func TestConnectFirewalledNoListener(t *testing.T) {
	// Firewalled host without the port registered: the overlay NAKs fast
	// because the host is known to hub B.
	tn := newTestNet(t, vnet.Open, vnet.OutboundOnly)
	fa := newFactory(t, tn.net, tn.clientA, 20000, tn.hubA)
	newFactory(t, tn.net, tn.clntB, 20000, tn.hubB)
	fa.Timeout = 5 * time.Second // NAK must beat this comfortably
	start := time.Now()
	_, err := fa.Connect(Address{Host: tn.clntB, Port: 29999, Hub: tn.hubB}, 0)
	if err == nil {
		t.Fatal("connect to unregistered port succeeded")
	}
	if time.Since(start) > 2*time.Second {
		t.Fatalf("NAK path too slow: %v", time.Since(start))
	}
}

// TestConnectUnknownHostFailsFast: a dead address is refused by a frame,
// not by a timer. An address on a hub nobody advertises is refused by the
// dialer's own hub, one on a live hub that serves no such client by that
// hub — with the watchdog set to an hour either way.
func TestConnectUnknownHostFailsFast(t *testing.T) {
	tn := newTestNet(t, vnet.OutboundOnly, vnet.OutboundOnly)
	fa := newFactory(t, tn.net, tn.clientA, 20000, tn.hubA)
	fa.Timeout = time.Hour
	for _, c := range []struct {
		dst  Address
		want error
	}{
		{Address{Host: "ghost-host", Port: 1}, ErrNoRoute},
		{Address{Host: "ghost-host", Port: 1, Hub: "ghost-hub"}, ErrNoRoute},
		{Address{Host: "ghost-host", Port: 1, Hub: tn.hubB}, ErrNoListener},
		{Address{Host: tn.clntB, Port: 1, Hub: tn.hubB}, ErrNoListener},
	} {
		_, err := fa.Connect(c.dst, 0)
		if !errors.Is(err, ErrConnectFailed) || !errors.Is(err, c.want) {
			t.Errorf("connect to %s: %v, want ErrConnectFailed wrapping %v", c.dst, err, c.want)
		}
	}
}

func TestListenerMergesConnTypes(t *testing.T) {
	// One listener must accept a direct conn from an open peer and a routed
	// conn from a firewalled peer.
	n := vnet.New()
	hosts := []struct {
		name string
		pol  vnet.Policy
	}{
		{"hub-a", vnet.Open}, {"open-client", vnet.Open},
		{"hub-b", vnet.Open}, {"fw-client", vnet.OutboundOnly},
		{"hub-c", vnet.Open}, {"server", vnet.OutboundOnly},
	}
	site := map[string]string{
		"hub-a": "sa", "open-client": "sa",
		"hub-b": "sb", "fw-client": "sb",
		"hub-c": "sc", "server": "sc",
	}
	for _, h := range hosts {
		if _, err := n.AddHost(h.name, site[h.name], h.pol); err != nil {
			t.Fatal(err)
		}
	}
	links := [][2]string{
		{"hub-a", "open-client"}, {"hub-b", "fw-client"}, {"hub-c", "server"},
		{"hub-a", "hub-b"}, {"hub-b", "hub-c"}, {"hub-a", "hub-c"},
	}
	for _, l := range links {
		if err := n.AddLink(l[0], l[1], time.Millisecond, 1e9); err != nil {
			t.Fatal(err)
		}
	}
	ov, err := StartHubs(n, []string{"hub-a", "hub-b", "hub-c"})
	if err != nil {
		t.Fatal(err)
	}
	defer ov.Stop()

	server := newFactory(t, n, "server", 20000, "hub-c")
	l, err := server.Listen(21000)
	if err != nil {
		t.Fatal(err)
	}
	openC := newFactory(t, n, "open-client", 20000, "hub-a")
	fwC := newFactory(t, n, "fw-client", 20000, "hub-b")

	// The server is firewalled: open-client gets a reverse conn (server can
	// dial back to the open client), fw-client must be routed.
	c1, err := openC.Connect(l.Addr(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if c1.Type() != Reverse {
		t.Fatalf("open client conn type %v, want reverse", c1.Type())
	}
	c2, err := fwC.Connect(l.Addr(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if c2.Type() != Routed {
		t.Fatalf("fw client conn type %v, want routed", c2.Type())
	}
}

func TestOverlayEdgesDirect(t *testing.T) {
	tn := newTestNet(t, vnet.Open, vnet.Open)
	edges := tn.overlay.Edges()
	if len(edges) != 1 {
		t.Fatalf("edges = %+v, want 1", edges)
	}
	if edges[0].Type != EdgeDirect {
		t.Fatalf("edge type %v, want direct", edges[0].Type)
	}
	if !tn.overlay.Connected() {
		t.Fatal("overlay not connected")
	}
}

func TestOverlaySSHTunnel(t *testing.T) {
	// Hub B runs on an SSH-only front-end: hub A must tunnel.
	n := vnet.New()
	if _, err := n.AddHost("hub-a", "sa", vnet.Open); err != nil {
		t.Fatal(err)
	}
	if _, err := n.AddHost("hub-b", "sb", vnet.SSHOnly); err != nil {
		t.Fatal(err)
	}
	if err := n.AddLink("hub-a", "hub-b", time.Millisecond, 1e9); err != nil {
		t.Fatal(err)
	}
	ov, err := StartHubs(n, []string{"hub-a", "hub-b"})
	if err != nil {
		t.Fatal(err)
	}
	defer ov.Stop()
	edges := ov.Edges()
	if len(edges) != 1 || edges[0].Type != EdgeSSH {
		t.Fatalf("edges %+v, want one ssh tunnel", edges)
	}
	m := ov.RenderMap()
	if !strings.Contains(m, "ssh-tunnel") {
		t.Fatalf("render map missing ssh tunnel:\n%s", m)
	}
}

func TestOverlayOneWay(t *testing.T) {
	// Hub B is fully firewalled: only B->A links can form (the Fig. 10
	// arrows). B can still participate via its outbound link.
	n := vnet.New()
	if _, err := n.AddHost("hub-a", "sa", vnet.Open); err != nil {
		t.Fatal(err)
	}
	if _, err := n.AddHost("hub-b", "sb", vnet.OutboundOnly); err != nil {
		t.Fatal(err)
	}
	if err := n.AddLink("hub-a", "hub-b", time.Millisecond, 1e9); err != nil {
		t.Fatal(err)
	}
	ov, err := StartHubs(n, []string{"hub-a", "hub-b"})
	if err != nil {
		t.Fatal(err)
	}
	defer ov.Stop()
	edges := ov.Edges()
	if len(edges) != 1 || edges[0].Type != EdgeOneWay {
		t.Fatalf("edges %+v, want one one-way link", edges)
	}
	if !ov.Connected() {
		t.Fatal("one-way overlay should still count as connected")
	}
}

func TestOverlayGossipDiscovery(t *testing.T) {
	// A knows B, B knows C; gossip must let A discover C.
	n := vnet.New()
	for _, h := range []string{"ha", "hb", "hc"} {
		if _, err := n.AddHost(h, h, vnet.Open); err != nil {
			t.Fatal(err)
		}
	}
	if err := n.AddLink("ha", "hb", time.Millisecond, 1e9); err != nil {
		t.Fatal(err)
	}
	if err := n.AddLink("hb", "hc", time.Millisecond, 1e9); err != nil {
		t.Fatal(err)
	}
	ha, err := newHub(n, "ha", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer ha.Stop()
	hb, err := newHub(n, "hb", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer hb.Stop()
	hc, err := newHub(n, "hc", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer hc.Stop()
	if err := hb.ConnectTo("hc"); err != nil {
		t.Fatal(err)
	}
	if err := ha.ConnectTo("hb"); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if ha.route("hc") != nil {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("gossip did not spread: ha holds %v", ha.Database())
}

// TestRandomJungleConnectivity is the package's core property test: in any
// random topology where every site hub is mutually reachable at the network
// level and every client can reach its site hub, any client connects to any
// listening client — whatever the firewall policies — exactly the paper's
// requirement 2 ("the application should be able to communicate between all
// resources").
func TestRandomJungleConnectivity(t *testing.T) {
	if testing.Short() {
		t.Skip("property test")
	}
	policies := []vnet.Policy{vnet.Open, vnet.OutboundOnly}
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 8; trial++ {
		n := vnet.New()
		sites := 2 + rng.Intn(3) // 2..4 sites
		var hubs, clients []string
		for s := 0; s < sites; s++ {
			hub := fmt.Sprintf("hub-%d", s)
			client := fmt.Sprintf("client-%d", s)
			if _, err := n.AddHost(hub, fmt.Sprintf("site-%d", s), vnet.Open); err != nil {
				t.Fatal(err)
			}
			pol := policies[rng.Intn(len(policies))]
			if _, err := n.AddHost(client, fmt.Sprintf("site-%d", s), pol); err != nil {
				t.Fatal(err)
			}
			if err := n.AddLink(hub, client, 100*time.Microsecond, 1e9); err != nil {
				t.Fatal(err)
			}
			hubs = append(hubs, hub)
			clients = append(clients, client)
		}
		// Random spanning tree over hubs plus extra random edges.
		for s := 1; s < sites; s++ {
			if err := n.AddLink(hubs[s], hubs[rng.Intn(s)], time.Millisecond, 1e9); err != nil {
				t.Fatal(err)
			}
		}
		ov, err := StartHubs(n, hubs)
		if err != nil {
			t.Fatal(err)
		}
		var fs []*Factory
		var ls []*Listener
		ok := true
		for i, c := range clients {
			f, err := NewFactory(n, c, 20000, hubs[i])
			if err != nil {
				t.Errorf("trial %d: factory on %s: %v", trial, c, err)
				ok = false
				break
			}
			fs = append(fs, f)
			l, err := f.Listen(21000)
			if err != nil {
				t.Errorf("trial %d: listen on %s: %v", trial, c, err)
				ok = false
				break
			}
			ls = append(ls, l)
		}
		if ok {
			for i := range fs {
				for j := range ls {
					if i == j {
						continue
					}
					conn, err := fs[i].Connect(ls[j].Addr(), 0)
					if err != nil {
						t.Errorf("trial %d: %s -> %s failed: %v", trial, clients[i], clients[j], err)
						continue
					}
					if err := conn.Send([]byte("x"), 0); err != nil {
						t.Errorf("trial %d: send %s -> %s: %v", trial, clients[i], clients[j], err)
					}
					conn.Close()
				}
			}
		}
		for _, f := range fs {
			f.Close()
		}
		ov.Stop()
	}
}
