package smartsockets

import (
	"testing"

	"jungle/internal/vnet"
)

// BenchmarkVirtualConnRoundTrip: a 64-byte message each way over a virtual
// connection between the clients of two sites — direct, when both clients
// accept inbound connections, and routed, when both sit behind outbound-only
// firewalls and every message is circuit data relayed by both sites' hubs.
func BenchmarkVirtualConnRoundTrip(b *testing.B) {
	for _, c := range []struct {
		name string
		pol  vnet.Policy
		want ConnType
	}{{"direct", vnet.Open, Direct}, {"routed", vnet.OutboundOnly, Routed}} {
		b.Run(c.name, func(b *testing.B) {
			tn := newTestNet(b, c.pol, c.pol)
			fa := newFactory(b, tn.net, tn.clientA, 20000, tn.hubA)
			fb := newFactory(b, tn.net, tn.clntB, 20000, tn.hubB)
			l, err := fb.Listen(21000)
			if err != nil {
				b.Fatal(err)
			}
			conn, err := fa.Connect(l.Addr(), 0)
			if err != nil {
				b.Fatal(err)
			}
			if conn.Type() != c.want {
				b.Fatalf("conn type %v, want %v", conn.Type(), c.want)
			}
			defer conn.Close()
			srv, err := l.Accept()
			if err != nil {
				b.Fatal(err)
			}
			msg := make([]byte, 64)
			// The first round trip grows the queues on the way: it runs
			// before the timer starts.
			b.ReportAllocs()
			for i := 0; i == 0 || b.Loop(); i++ {
				if err := conn.Send(msg, 0); err != nil {
					b.Fatal(err)
				}
				m, err := srv.Recv()
				if err != nil {
					b.Fatal(err)
				}
				if err := srv.Send(m.Data, m.Arrival); err != nil {
					b.Fatal(err)
				}
				if _, err := conn.Recv(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkConnectCascade: the connect a coupled step's peer plane makes
// between two firewalled clients of two sites — the direct dial is
// firewalled, the reverse request comes back as a nak (the target cannot
// dial back either), the routed open is acked by the target's factory —
// then both ends close the circuit. Every step is frames through both
// sites' hubs; the first connect, which routes and sizes the queues, runs
// before the timer starts.
func BenchmarkConnectCascade(b *testing.B) {
	tn := newTestNet(b, vnet.OutboundOnly, vnet.OutboundOnly)
	fa := newFactory(b, tn.net, tn.clientA, 20000, tn.hubA)
	fb := newFactory(b, tn.net, tn.clntB, 20000, tn.hubB)
	l, err := fb.Listen(21000)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i == 0 || b.Loop(); i++ {
		conn, err := fa.Connect(l.Addr(), 0)
		if err != nil {
			b.Fatal(err)
		}
		if conn.Type() != Routed {
			b.Fatalf("conn type %v, want routed", conn.Type())
		}
		srv, err := l.Accept()
		if err != nil {
			b.Fatal(err)
		}
		conn.Close() // returns once the peer's close arrived
		srv.Close()
	}
}
