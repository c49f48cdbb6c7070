package smartsockets

import (
	"bytes"
	"fmt"
	"reflect"
	"strconv"
	"strings"
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
	if err := decodeFrame(vnet.Message{Data: enc, Arrival: 7}, f, nil); err != nil {
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

// TestKeptFrameDecodeAllocGate: a reader decoding a connection's set-up
// into the frame it keeps — an open naming both ends and its route, the
// ack, a close that carries only the circuit, a reverse request that
// carries no circuit — pays, after one warm-up cycle, for each new circuit
// key and for nothing else: the names a close drops come back from the
// ring, and the route's array waits beside the frame. Every frame decodes
// to what a fresh frame decodes it to.
func TestKeptFrameDecodeAllocGate(t *testing.T) {
	a := Address{Host: "das4-vu.node00", Port: 20000, Hub: "das4-vu.fe"}
	b := Address{Host: "das4-tud.node00", Port: 20002, Hub: "das4-tud.fe"}
	route := []string{"das4-vu.fe", "lgm", "das4-tud.fe"}
	const runs = 100
	cycles := make([][]vnet.Message, runs+2) // AllocsPerRun's warm-up, then runs
	for i := range cycles {
		key := circuitKey(a.Host, a.Port, uint64(i+1))
		for _, f := range []frame{
			{Kind: kCircuitOpen, Src: a, Dst: b, Circuit: key, Route: route, Hop: 1},
			{Kind: kCircuitAck, Src: a, Dst: b, Circuit: key, Route: route, Hop: 2},
			{Kind: kCircuitClose, Circuit: key},
			{Kind: kReverseReq, Src: a, Dst: b, Route: route, ReqID: uint64(i + 1), ReplyPort: 40000},
		} {
			cycles[i] = append(cycles[i], vnet.Message{Data: wire.Marshal(&f)})
		}
	}
	var k keptFrame
	next := 0
	cycle := func() {
		for _, m := range cycles[next] {
			if err := k.decode(m); err != nil {
				t.Fatal(err)
			}
		}
		next++
	}
	cycle() // warm-up: the frame's first names and its route's array
	if allocs := testing.AllocsPerRun(runs, cycle); allocs != 1 {
		t.Errorf("decoding a cycle of 4 frames into the kept frame: %v allocations, want 1 (its circuit key)", allocs)
	}
	for _, m := range cycles[0] {
		var want frame
		if err := wire.Unmarshal(m.Data, &want); err != nil {
			t.Fatal(err)
		}
		if err := k.decode(m); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(k.frame, want) {
			t.Fatalf("kept frame decoded\n%+v\nwant\n%+v", k.frame, want)
		}
	}
}

// TestRenderingsMatchSprintf: a peer address and a circuit key, which
// transfers and data frames carry, read as fmt.Sprintf rendered them.
func TestRenderingsMatchSprintf(t *testing.T) {
	long := strings.Repeat("node", 20) // past the renderings' 64-byte buffer
	for _, a := range []Address{
		{Host: "das4-vu.node00", Port: 20002, Hub: "das4-vu.fe"},
		{Host: "lgm", Port: 0},
		{Host: long, Port: -7, Hub: long},
	} {
		want := fmt.Sprintf("%s:%d@%s", a.Host, a.Port, a.Hub)
		if a.Hub == "" {
			want = fmt.Sprintf("%s:%d", a.Host, a.Port)
		}
		if got := a.String(); got != want {
			t.Errorf("Address.String() = %q, want %q", got, want)
		}
	}
	for _, n := range []uint64{1, 35, 36, 1295, 1 << 63} {
		for _, host := range []string{"das4-tud.node00", long} {
			want := fmt.Sprintf("%s:%d/%s", host, 20000, strconv.FormatUint(n, 36))
			if got := circuitKey(host, 20000, n); got != want {
				t.Errorf("circuitKey(%q, 20000, %d) = %q, want %q", host, n, got, want)
			}
		}
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
