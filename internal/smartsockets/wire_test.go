package smartsockets

import (
	"bytes"
	"sync/atomic"
	"testing"

	"jungle/internal/vnet"
	"jungle/internal/wire"
	"jungle/internal/wiretest"
)

func TestFrameOnTheWire(t *testing.T) {
	wiretest.Check(t, frame{})
	data := &frame{Kind: kCircuitData, Circuit: "client-a:20000/1", Payload: make([]byte, 256)}
	enc := wire.Marshal(data)
	if ref := wiretest.GobSize(t, data); len(enc) > ref {
		t.Errorf("circuit data frame: %d bytes, gob took %d", len(enc), ref)
	}
	if over := len(enc) - len(data.Payload); over > 48 {
		t.Errorf("circuit data frame carries %d bytes beside its payload", over)
	}
}

func TestFrameDecodeAliasesMessage(t *testing.T) {
	enc := wire.Marshal(&frame{Kind: kCircuitData, Circuit: "c/1", Payload: []byte("payload")})
	f := new(frame)
	if err := decodeFrame(vnet.Message{Data: enc, Arrival: 7}, f); err != nil {
		t.Fatal(err)
	}
	if f.sentAt != 7 || f.Circuit != "c/1" || string(f.Payload) != "payload" {
		t.Fatalf("decoded %+v", f)
	}
	enc[bytes.Index(enc, []byte("payload"))] = 'P'
	if string(f.Payload) != "Payload" {
		t.Fatal("decoded Payload is a copy of the message, not a view of it")
	}
}

func TestCircuitOf(t *testing.T) {
	enc := wire.Marshal(&frame{Kind: kCircuitData, Circuit: "client-a:20000/12", Payload: []byte{1, 2, 3}})
	kind, circuit, payload, ok := circuitOf(enc)
	if !ok || kind != kCircuitData || string(circuit) != "client-a:20000/12" || !bytes.Equal(payload, []byte{1, 2, 3}) {
		t.Fatalf("circuitOf = %d %q %v %v", kind, circuit, payload, ok)
	}
	for cut := 0; cut < 1+1+len("client-a:20000/12")+1+3; cut++ {
		if _, _, _, ok := circuitOf(enc[:cut]); ok {
			t.Fatalf("head cut at %d accepted", cut)
		}
	}
	if _, _, _, ok := circuitOf(append([]byte{kCircuitData}, wire.AppendUint(nil, 1<<50)...)); ok {
		t.Fatal("forged circuit length accepted")
	}
}

// byteCounter is a vnet traffic recorder that sums every byte sent.
type byteCounter struct{ n atomic.Int64 }

func (c *byteCounter) TrafficCounter(from, to, class string) *atomic.Int64 { return &c.n }

// TestRoutedPingPongGates: one 256-byte ping-pong over a hub-routed
// circuit (client, hub, hub, client and back: six vnet sends) cost 1 612
// allocations and 3 253 wire bytes while every hop decoded and rebuilt the
// frame with a fresh gob codec.
func TestRoutedPingPongGates(t *testing.T) {
	tn := newTestNet(t, vnet.OutboundOnly, vnet.OutboundOnly)
	var wireBytes byteCounter
	tn.net.SetRecorder(&wireBytes)
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
	if conn.Type() != Routed {
		t.Fatalf("conn type %v, want routed", conn.Type())
	}
	srv, err := l.Accept()
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			m, err := srv.Recv()
			if err != nil {
				return
			}
			if srv.Send(m.Data, m.Arrival) != nil {
				return
			}
		}
	}()
	msg := make([]byte, 256)
	trips := 0
	pingPong := func() {
		trips++
		if err := conn.Send(msg, 0); err != nil {
			t.Fatal(err)
		}
		if _, err := conn.Recv(); err != nil {
			t.Fatal(err)
		}
	}
	pingPong() // first use grows the queues and fills the buffer pool
	before := wireBytes.n.Load()
	trips = 0
	allocs := testing.AllocsPerRun(200, pingPong)
	perTrip := float64(wireBytes.n.Load()-before) / float64(trips)
	if allocs > 100 {
		t.Errorf("routed 256 B ping-pong: %v allocs, gate 100", allocs)
	}
	if perTrip > 2000 {
		t.Errorf("routed 256 B ping-pong: %.0f wire bytes, gate 2000", perTrip)
	}
	conn.Close()
	srv.Close()
	<-done
}
