package vnet

import "testing"

// BenchmarkConnSendRecv: one message over a connection between two hosts, at
// an RPC's size and at a bulk state frame's. Send takes the slice and the
// receiver gets it, so both sizes read the same allocs/op.
func BenchmarkConnSendRecv(b *testing.B) {
	for _, c := range []struct {
		name string
		size int
	}{{"64B", 64}, {"3MiB", 3 << 20}} {
		b.Run(c.name, func(b *testing.B) {
			n := twoHosts(b, Open)
			l, err := n.Listen("b", 100)
			if err != nil {
				b.Fatal(err)
			}
			defer l.Close()
			conn, err := n.Dial("a", "b", 100)
			if err != nil {
				b.Fatal(err)
			}
			defer conn.Close()
			srv, err := l.Accept()
			if err != nil {
				b.Fatal(err)
			}
			msg := make([]byte, c.size)
			// The first message grows the connection's queues: one round
			// trip before the timer starts.
			b.ReportAllocs()
			for i := 0; i == 0 || b.Loop(); i++ {
				if _, err := conn.Send(msg, 0); err != nil {
					b.Fatal(err)
				}
				if _, err := srv.Recv(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
