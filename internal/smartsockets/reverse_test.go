package smartsockets

import (
	"errors"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"jungle/internal/vnet"
)

// hubBytes is a vnet traffic recorder that sums the hub class's bytes.
type hubBytes struct{ n atomic.Int64 }

func (c *hubBytes) TrafficCounter(_, _, class string) *atomic.Int64 {
	if class == "hub" {
		return &c.n
	}
	return nil
}

// connectSeq makes n sequential connects from client A to a listener on
// client B, base 20000 on both, after A's host listened on base+1 …
// base+held; it returns each connection's type and EstablishedAt, and the
// hub-class bytes the connects moved.
func connectSeq(t *testing.T, polA vnet.Policy, held, n int) (types []ConnType, at []time.Duration, hub int64) {
	t.Helper()
	tn := newTestNet(t, polA, vnet.OutboundOnly)
	fa := newFactory(t, tn.net, tn.clientA, 20000, tn.hubA)
	fb := newFactory(t, tn.net, tn.clntB, 20000, tn.hubB)
	l, err := fb.Listen(21000)
	if err != nil {
		t.Fatal(err)
	}
	for p := 1; p <= held; p++ {
		vl, err := tn.net.Listen(tn.clientA, 20000+p)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { vl.Close() })
	}
	var rec hubBytes
	tn.net.SetRecorder(&rec)
	for i := range n {
		conn, err := fa.Connect(l.Addr(), time.Duration(i)*time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		srv, err := l.Accept()
		if err != nil {
			t.Fatal(err)
		}
		types, at = append(types, conn.Type()), append(at, conn.EstablishedAt())
		conn.Close() // a routed close returns once the peer's close arrived
		srv.Close()
	}
	return types, at, rec.n.Load()
}

// TestReverseIgnoresHeldPorts: a factory whose host already listens on
// base+1 … base+16 reaches a firewalled target by reverse connection on
// each of 8 sequential connects; two firewalled ends still get a routed
// circuit.
func TestReverseIgnoresHeldPorts(t *testing.T) {
	if types, _, _ := connectSeq(t, vnet.Open, 16, 8); slices.ContainsFunc(types, func(c ConnType) bool { return c != Reverse }) {
		t.Fatalf("connection types %v, want 8 reverse", types)
	}
	if types, _, _ := connectSeq(t, vnet.OutboundOnly, 16, 1); types[0] != Routed {
		t.Fatalf("firewalled to firewalled: %v, want routed", types[0])
	}
}

// TestReverseBytesIgnoreHeldPorts: the same connect sequence moves the same
// hub-class bytes and establishes each connection at the same virtual time
// whether or not the dialling host listens on base+1 … base+64.
func TestReverseBytesIgnoreHeldPorts(t *testing.T) {
	_, at, hub := connectSeq(t, vnet.Open, 0, 8)
	_, heldAt, heldHub := connectSeq(t, vnet.Open, 64, 8)
	if hub != heldHub || !slices.Equal(at, heldAt) {
		t.Fatalf("hub bytes %d, established %v\nwith base+1 … base+64 held: hub bytes %d, established %v", hub, at, heldHub, heldAt)
	}
}

// TestRetentionReversePorts: 1 000 sequential reverse connects each draw
// the ephemeral range's first port for their reply listener and leave no
// listener behind (the first port is free again at the end), and an
// explicit Listen on an ephemeral port is refused even when it is free.
func TestRetentionReversePorts(t *testing.T) {
	cycles := 1000
	if testing.Short() {
		cycles = 100
	}
	var mu sync.Mutex
	var ports []int
	t.Cleanup(func() { testDecoded = nil }) // after the hubs and factories stopped
	testDecoded = func(fr *frame) {
		if fr.Kind == kReverseReq && fr.Hop == 0 { // as the dialler's hub decodes it
			mu.Lock()
			ports = append(ports, fr.ReplyPort)
			mu.Unlock()
		}
	}
	tn := newTestNet(t, vnet.Open, vnet.OutboundOnly)
	fa := newFactory(t, tn.net, tn.clientA, 20000, tn.hubA)
	fb := newFactory(t, tn.net, tn.clntB, 20000, tn.hubB)
	l, err := fb.Listen(21000)
	if err != nil {
		t.Fatal(err)
	}
	for range cycles {
		conn, err := fa.Connect(l.Addr(), 0)
		if err != nil {
			t.Fatal(err)
		}
		if conn.Type() != Reverse {
			t.Fatalf("conn type %v, want reverse", conn.Type())
		}
		srv, err := l.Accept()
		if err != nil {
			t.Fatal(err)
		}
		conn.Close()
		srv.Close()
	}
	mu.Lock()
	defer mu.Unlock()
	if len(ports) != cycles || slices.ContainsFunc(ports, func(p int) bool { return p != vnet.EphemeralFirst }) {
		t.Fatalf("%d reverse requests, want %d, each for reply port %d; got %v", len(ports), cycles, vnet.EphemeralFirst, ports[:min(len(ports), 8)])
	}
	vl, err := tn.net.Listen(tn.clientA, 0)
	if err != nil {
		t.Fatal(err)
	}
	if vl.Port() != vnet.EphemeralFirst {
		t.Fatalf("after %d connects the first free ephemeral port is %d, want %d: a reply listener was left behind", cycles, vl.Port(), vnet.EphemeralFirst)
	}
	vl.Close()
	if _, err := tn.net.Listen(tn.clientA, vnet.EphemeralFirst); !errors.Is(err, vnet.ErrPortInUse) {
		t.Fatalf("explicit Listen on ephemeral port %d: %v, want %v", vnet.EphemeralFirst, err, vnet.ErrPortInUse)
	}
}
