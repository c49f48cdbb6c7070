package core

import (
	"testing"
	"time"

	"jungle/internal/smartsockets"
	"jungle/internal/trace"
)

// linkHop is one vnet connection a message crosses: its latency and the
// bandwidth it is serialized at.
type linkHop struct {
	lat time.Duration
	bw  float64
}

// price is what a message of n bytes takes over the hop: the latency plus
// n/bw, cut to the nanosecond.
func (h linkHop) price(n int) time.Duration {
	return h.lat + time.Duration(float64(n)/h.bw*float64(time.Second))
}

// bottleneck is the hop of a vnet route over several links: their
// latencies add up, and the message is serialized once, at the slowest.
func bottleneck(links ...linkHop) linkHop {
	p := linkHop{bw: links[0].bw}
	for _, l := range links {
		p.lat += l.lat
		p.bw = min(p.bw, l.bw)
	}
	return p
}

// TestConfiguredLinkPricing holds the testbeds' links to their configured
// latency and bandwidth, which the table writes out itself rather than
// reading them back from the code that sets them. For each edge type — the
// DSL uplinks, the lightpath, the NAT'd laptop's reverse path, an SSH-only
// frontend (its own site's LAN, a reverse dial-back, a routed tunnel) and
// hub-routed paths with one and with two loopback legs — a message of L
// bytes, for two sizes of L, must arrive at exactly sentAt plus each
// hop's latency and wire bytes over its bandwidth, plus hubRelay for
// every hub that relays it. A routed message crosses every hop as one
// circuit frame, so the wire bytes per hop are the bytes the recorder
// counted over the send, divided by the hops.
func TestConfiguredLinkPricing(t *testing.T) {
	const hubRelay = 200 * time.Microsecond
	var (
		dslUplink  = linkHop{20 * time.Millisecond, 1.25e6}
		lightpath  = linkHop{2 * time.Millisecond, 1.25e9}
		transat    = linkHop{40 * time.Millisecond, 1.25e8}
		starplane  = linkHop{time.Millisecond, 1.25e9}
		lgmPath    = linkHop{time.Millisecond, 1.25e8}
		renderPath = linkHop{time.Millisecond, 1.25e9}
		clusterLAN = linkHop{100 * time.Microsecond, 1.25e9}
		desktopLAN = linkHop{100 * time.Microsecond, 1.25e8}
		loopback   = linkHop{10 * time.Microsecond, 2e9}
	)
	testbeds := map[string]func() (*Testbed, error){
		"dsl": NewDSLTestbed, "sc11": NewSC11Testbed, "lab": NewLabTestbed,
	}
	for _, e := range []struct {
		testbed, from, to string
		fromHub           string // "" registers from with its own host's hub
		typ               smartsockets.ConnType
		hops              []linkHop
	}{
		{"dsl", "home", "site-a", "", smartsockets.Direct, []linkHop{dslUplink}},
		{"dsl", "site-b", "home", "", smartsockets.Direct, []linkHop{dslUplink}},
		{"dsl", "site-a", "site-b", "", smartsockets.Direct, []linkHop{lightpath}},
		{"dsl", "site-b", "site-a", "", smartsockets.Direct, []linkHop{lightpath}},
		{"sc11", "laptop", "das4-vu.fe", "", smartsockets.Routed, []linkHop{loopback, transat, loopback}},
		// The laptop accepts nothing inbound and can dial back to no
		// port but an SSH-only frontend's sshd, so its reverse path is a
		// circuit over the same lightpath.
		{"sc11", "das4-vu.fe", "laptop", "", smartsockets.Routed, []linkHop{loopback, transat, loopback}},
		{"sc11", "das4-vu.fe", "das4-uva.fe", "", smartsockets.Routed, []linkHop{loopback, starplane, loopback}},
		{"sc11", "das4-uva.fe", "das4-vu.fe", "", smartsockets.Routed, []linkHop{loopback, starplane, loopback}},
		{"sc11", "das4-vu.fe", "lgm", "", smartsockets.Routed, []linkHop{loopback, lgmPath, loopback}},
		{"sc11", "lgm", "das4-vu.fe", "", smartsockets.Routed, []linkHop{loopback, lgmPath, loopback}},
		{"sc11", "das4-vu.node00", "lgm", "das4-vu.fe", smartsockets.Routed, []linkHop{clusterLAN, lgmPath, loopback}},
		// The render cluster runs no hub: it registers through its
		// neighbour's, over the link to it.
		{"sc11", "rvs-sara", "das4-vu.fe", "das4-vu.fe", smartsockets.Routed, []linkHop{renderPath, loopback}},
		// The SSH-only frontend takes its own site's desktop directly, and
		// reaches the desktop from another site by dialing it back.
		{"lab", "desktop", "das4-vu.fe", "", smartsockets.Direct, []linkHop{desktopLAN}},
		{"lab", "desktop", "das4-uva.fe", "", smartsockets.Reverse, []linkHop{bottleneck(desktopLAN, starplane)}},
	} {
		tb, err := testbeds[e.testbed]()
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(tb.Close)
		fromHub := e.fromHub
		if fromHub == "" {
			fromHub = e.from
		}
		src, err := smartsockets.NewFactory(tb.Net, e.from, 40000, fromHub)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(src.Close)
		dst, err := smartsockets.NewFactory(tb.Net, e.to, 40100, e.to)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(dst.Close)
		l, err := dst.Listen(40150)
		if err != nil {
			t.Fatal(err)
		}
		conn, err := src.Connect(l.Addr(), time.Second)
		if err != nil {
			t.Fatalf("%s %s -> %s: %v", e.testbed, e.from, e.to, err)
		}
		peer, err := l.Accept()
		if err != nil {
			t.Fatal(err)
		}
		if conn.Type() != e.typ {
			t.Errorf("%s %s -> %s is %v, want %v", e.testbed, e.from, e.to, conn.Type(), e.typ)
		}
		for _, n := range []int{1000, 100000} {
			const sentAt = 10 * time.Second
			before := recordedBytes(tb.Recorder)
			if err := conn.Send(make([]byte, n), sentAt); err != nil {
				t.Fatal(err)
			}
			msg, err := peer.Recv()
			if err != nil {
				t.Fatal(err)
			}
			moved := recordedBytes(tb.Recorder) - before
			wire := moved / len(e.hops)
			if moved%len(e.hops) != 0 || wire < n || (e.typ != smartsockets.Routed && wire != n) {
				t.Fatalf("%s %s -> %s: %d bytes sent moved %d over %d hops", e.testbed, e.from, e.to, n, moved, len(e.hops))
			}
			want := sentAt + time.Duration(len(e.hops)-1)*hubRelay
			for _, h := range e.hops {
				want += h.price(wire)
			}
			if msg.Arrival != want || len(msg.Data) != n {
				t.Errorf("%s %s -> %s: %d bytes arrive at %v (%d bytes), want %v",
					e.testbed, e.from, e.to, n, msg.Arrival, len(msg.Data), want)
			}
		}
		conn.Close()
		peer.Close()
	}
}

// recordedBytes is every byte the recorder has counted, on any link and
// under any class.
func recordedBytes(r *trace.Recorder) int {
	n := 0
	for _, row := range r.TrafficTable() {
		n += row.Bytes
	}
	return n
}
