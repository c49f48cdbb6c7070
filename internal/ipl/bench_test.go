package ipl

import "testing"

// BenchmarkPortRoundTrip: one 64-byte request and its reply over a OneToOne
// send/receive port pair each way between two members, echoed by the far
// member's receive loop.
func BenchmarkPortRoundTrip(b *testing.B) {
	tp := newTestPool(b, 2)
	a, m := tp.join(b, 0, "bench"), tp.join(b, 1, "bench")
	there, err := m.CreateReceivePort(OneToOne, "there", nil)
	if err != nil {
		b.Fatal(err)
	}
	back, err := a.CreateReceivePort(OneToOne, "back", nil)
	if err != nil {
		b.Fatal(err)
	}
	out, ret := a.CreateSendPort(OneToOne, "out"), m.CreateSendPort(OneToOne, "ret")
	if err := out.Connect(m.Identifier(), "there", 0); err != nil {
		b.Fatal(err)
	}
	if err := ret.Connect(a.Identifier(), "back", 0); err != nil {
		b.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			msg, err := there.Receive()
			if err != nil {
				return
			}
			if err := ret.Write(msg.Data, msg.Arrival); err != nil {
				return
			}
		}
	}()
	defer func() { there.Close(); <-done }()
	req := make([]byte, 64)
	// The first round trip grows the ports' queues: it runs before the timer
	// starts.
	b.ReportAllocs()
	for i := 0; i == 0 || b.Loop(); i++ {
		if err := out.Write(req, 0); err != nil {
			b.Fatal(err)
		}
		msg, err := back.Receive()
		if err != nil {
			b.Fatal(err)
		}
		req = msg.Data
	}
}
