package ipl

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"jungle/internal/smartsockets"
	"jungle/internal/vnet"
)

// testPool spins up a network with one open hub host, a registry on it, and
// n member hosts (open policy, same site) ready for Create.
type testPool struct {
	net      *vnet.Network
	registry *Registry
	hub      string
	hosts    []string
}

func newTestPool(t *testing.T, n int) *testPool {
	t.Helper()
	network := vnet.New()
	if _, err := network.AddHost("hub", "site", vnet.Open); err != nil {
		t.Fatal(err)
	}
	var hosts []string
	for i := 0; i < n; i++ {
		h := fmt.Sprintf("m%d", i)
		if _, err := network.AddHost(h, "site", vnet.Open); err != nil {
			t.Fatal(err)
		}
		if err := network.AddLink("hub", h, 100*time.Microsecond, 1.25e9); err != nil {
			t.Fatal(err)
		}
		hosts = append(hosts, h)
	}
	// Hub overlay of one.
	ov, err := smartsockets.StartHubs(network, []string{"hub"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ov.Stop)
	reg, err := NewRegistry(network, "hub", "hub")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(reg.Close)
	return &testPool{net: network, registry: reg, hub: "hub", hosts: hosts}
}

func (tp *testPool) join(t *testing.T, i int, pool string) *Ibis {
	t.Helper()
	ib, err := Create(tp.net, Config{
		Pool: pool, Host: tp.hosts[i], BasePort: 20000,
		HubHost: tp.hub, Registry: tp.registry.Addr(),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ib.End)
	return ib
}

func TestJoinAssignsSequentialIDs(t *testing.T) {
	tp := newTestPool(t, 3)
	a := tp.join(t, 0, "amuse")
	b := tp.join(t, 1, "amuse")
	c := tp.join(t, 2, "amuse")
	if a.Identifier().ID != 0 || b.Identifier().ID != 1 || c.Identifier().ID != 2 {
		t.Fatalf("ids = %d,%d,%d", a.Identifier().ID, b.Identifier().ID, c.Identifier().ID)
	}
	members := tp.registry.Members("amuse")
	if len(members) != 3 {
		t.Fatalf("registry members = %v", members)
	}
}

func TestPoolsAreIsolated(t *testing.T) {
	tp := newTestPool(t, 2)
	a := tp.join(t, 0, "poolA")
	b := tp.join(t, 1, "poolB")
	if a.Identifier().ID != 0 || b.Identifier().ID != 0 {
		t.Fatalf("pool-separate ids: %d, %d", a.Identifier().ID, b.Identifier().ID)
	}
	if n := len(tp.registry.Members("poolA")); n != 1 {
		t.Fatalf("poolA members = %d", n)
	}
}

func TestJoinEventDelivery(t *testing.T) {
	tp := newTestPool(t, 2)
	a := tp.join(t, 0, "amuse")
	b := tp.join(t, 1, "amuse")
	select {
	case ev := <-a.Events():
		if ev.Kind != Joined || ev.Member.ID != b.Identifier().ID {
			t.Fatalf("event %+v, want join of %v", ev, b.Identifier())
		}
	case <-time.After(2 * time.Second):
		t.Fatal("no join event")
	}
	// Membership snapshot at joiner includes the earlier member.
	members := b.Members()
	if len(members) != 2 {
		t.Fatalf("b sees %v", members)
	}
}

func TestLeaveEvent(t *testing.T) {
	tp := newTestPool(t, 2)
	a := tp.join(t, 0, "amuse")
	b := tp.join(t, 1, "amuse")
	drainJoin(t, a)
	b.End()
	select {
	case ev := <-a.Events():
		if ev.Kind != Left {
			t.Fatalf("event %+v, want Left", ev)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("no leave event")
	}
}

func TestDiedEventOnCrash(t *testing.T) {
	// The paper's core fault-tolerance property: a member crash (here, a
	// kill without leave) is broadcast to the pool.
	tp := newTestPool(t, 2)
	a := tp.join(t, 0, "amuse")
	b := tp.join(t, 1, "amuse")
	drainJoin(t, a)

	var hookMu sync.Mutex
	var hooked []Identifier
	tp.registry.SetFailureHook(func(id Identifier) {
		hookMu.Lock()
		hooked = append(hooked, id)
		hookMu.Unlock()
	})

	b.Kill()
	select {
	case ev := <-a.Events():
		if ev.Kind != Died || ev.Member.ID != b.Identifier().ID {
			t.Fatalf("event %+v, want Died of %v", ev, b.Identifier())
		}
	case <-time.After(2 * time.Second):
		t.Fatal("no died event")
	}
	hookMu.Lock()
	defer hookMu.Unlock()
	if len(hooked) != 1 || hooked[0].ID != b.Identifier().ID {
		t.Fatalf("failure hook saw %v", hooked)
	}
}

func drainJoin(t *testing.T, ib *Ibis) {
	t.Helper()
	select {
	case <-ib.Events():
	case <-time.After(2 * time.Second):
		t.Fatal("expected join event")
	}
}

func TestElection(t *testing.T) {
	tp := newTestPool(t, 2)
	a := tp.join(t, 0, "amuse")
	b := tp.join(t, 1, "amuse")
	w1, err := a.Elect("server")
	if err != nil {
		t.Fatal(err)
	}
	if w1.ID != a.Identifier().ID {
		t.Fatalf("first elect winner %v, want %v", w1, a.Identifier())
	}
	// Second candidate loses; gets the existing winner.
	w2, err := b.Elect("server")
	if err != nil {
		t.Fatal(err)
	}
	if w2.ID != a.Identifier().ID {
		t.Fatalf("second elect winner %v, want %v", w2, a.Identifier())
	}
}

func TestSendReceiveExplicit(t *testing.T) {
	tp := newTestPool(t, 2)
	a := tp.join(t, 0, "amuse")
	b := tp.join(t, 1, "amuse")
	rp, err := b.CreateReceivePort(OneToOne, "in", nil)
	if err != nil {
		t.Fatal(err)
	}
	sp := a.CreateSendPort(OneToOne, "out")
	if err := sp.Connect(b.Identifier(), "in", time.Second); err != nil {
		t.Fatal(err)
	}
	if err := sp.Write([]byte("payload"), 2*time.Second); err != nil {
		t.Fatal(err)
	}
	m, err := rp.Receive()
	if err != nil {
		t.Fatal(err)
	}
	if string(m.Data) != "payload" {
		t.Fatalf("data %q", m.Data)
	}
	if m.From.ID != a.Identifier().ID {
		t.Fatalf("from %v", m.From)
	}
	if m.Arrival <= 2*time.Second {
		t.Fatalf("arrival %v, want after virtual send time", m.Arrival)
	}
}

func TestSendReceiveUpcall(t *testing.T) {
	tp := newTestPool(t, 2)
	a := tp.join(t, 0, "amuse")
	b := tp.join(t, 1, "amuse")
	got := make(chan ReadMessage, 1)
	if _, err := b.CreateReceivePort(ManyToOne, "up", func(m ReadMessage) { got <- m }); err != nil {
		t.Fatal(err)
	}
	sp := a.CreateSendPort(OneToOne, "out")
	if err := sp.Connect(b.Identifier(), "up", 0); err != nil {
		t.Fatal(err)
	}
	if err := sp.Write([]byte("hello upcall"), 0); err != nil {
		t.Fatal(err)
	}
	select {
	case m := <-got:
		if s := string(m.Data); s != "hello upcall" {
			t.Fatalf("received %q", s)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("upcall never fired")
	}
}

func TestManyToOne(t *testing.T) {
	tp := newTestPool(t, 3)
	recv := tp.join(t, 0, "amuse")
	s1 := tp.join(t, 1, "amuse")
	s2 := tp.join(t, 2, "amuse")
	rp, err := recv.CreateReceivePort(ManyToOne, "funnel", nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range []*Ibis{s1, s2} {
		sp := s.CreateSendPort(OneToOne, fmt.Sprintf("out%d", i))
		if err := sp.Connect(recv.Identifier(), "funnel", 0); err != nil {
			t.Fatal(err)
		}
		if err := sp.Write([]byte{byte(i)}, 0); err != nil {
			t.Fatal(err)
		}
	}
	seen := map[int]bool{}
	for i := 0; i < 2; i++ {
		m, err := rp.Receive()
		if err != nil {
			t.Fatal(err)
		}
		if len(m.Data) != 1 {
			t.Fatalf("received %d bytes, want 1", len(m.Data))
		}
		seen[int(m.Data[0])] = true
	}
	if !seen[0] || !seen[1] {
		t.Fatalf("seen %v", seen)
	}
}

func TestOneToManyBroadcast(t *testing.T) {
	tp := newTestPool(t, 3)
	src := tp.join(t, 0, "amuse")
	r1 := tp.join(t, 1, "amuse")
	r2 := tp.join(t, 2, "amuse")
	rp1, err := r1.CreateReceivePort(OneToOne, "bc", nil)
	if err != nil {
		t.Fatal(err)
	}
	rp2, err := r2.CreateReceivePort(OneToOne, "bc", nil)
	if err != nil {
		t.Fatal(err)
	}
	sp := src.CreateSendPort(OneToMany, "bcast")
	if err := sp.Connect(r1.Identifier(), "bc", 0); err != nil {
		t.Fatal(err)
	}
	if err := sp.Connect(r2.Identifier(), "bc", 0); err != nil {
		t.Fatal(err)
	}
	if err := sp.Write([]byte("all"), 0); err != nil {
		t.Fatal(err)
	}
	for _, rp := range []*ReceivePort{rp1, rp2} {
		m, err := rp.Receive()
		if err != nil {
			t.Fatal(err)
		}
		if string(m.Data) != "all" {
			t.Fatalf("broadcast data %q", m.Data)
		}
	}
}

func TestOneToOneRefusesSecondConnect(t *testing.T) {
	tp := newTestPool(t, 3)
	a := tp.join(t, 0, "amuse")
	b := tp.join(t, 1, "amuse")
	c := tp.join(t, 2, "amuse")
	if _, err := b.CreateReceivePort(OneToOne, "in", nil); err != nil {
		t.Fatal(err)
	}
	if _, err := c.CreateReceivePort(OneToOne, "in", nil); err != nil {
		t.Fatal(err)
	}
	sp := a.CreateSendPort(OneToOne, "out")
	if err := sp.Connect(b.Identifier(), "in", 0); err != nil {
		t.Fatal(err)
	}
	if err := sp.Connect(c.Identifier(), "in", 0); err == nil {
		t.Fatal("one-to-one port accepted second connection")
	}
}

func TestConnectUnknownPort(t *testing.T) {
	tp := newTestPool(t, 2)
	a := tp.join(t, 0, "amuse")
	b := tp.join(t, 1, "amuse")
	sp := a.CreateSendPort(OneToOne, "out")
	// The connection is accepted at the smartsockets level and then closed
	// by the demux; a subsequent write must fail... the handshake itself
	// cannot detect the missing port synchronously, matching IPL's lazy
	// connection semantics. Write errors surface on the next use.
	err := sp.Connect(b.Identifier(), "no-such-port", 0)
	if err != nil {
		return // also acceptable: eager failure
	}
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if werr := sp.Write([]byte("x"), 0); werr != nil {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal("writes to a non-existent port never failed")
}

func TestReceiveUnblocksOnClose(t *testing.T) {
	tp := newTestPool(t, 1)
	a := tp.join(t, 0, "amuse")
	rp, err := a.CreateReceivePort(OneToOne, "in", nil)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := rp.Receive()
		done <- err
	}()
	time.Sleep(50 * time.Millisecond)
	rp.Close()
	select {
	case err := <-done:
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("receive err %v, want ErrClosed", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Receive did not unblock")
	}
}

func TestDuplicateReceivePortName(t *testing.T) {
	tp := newTestPool(t, 1)
	a := tp.join(t, 0, "amuse")
	if _, err := a.CreateReceivePort(OneToOne, "dup", nil); err != nil {
		t.Fatal(err)
	}
	if _, err := a.CreateReceivePort(OneToOne, "dup", nil); err == nil {
		t.Fatal("duplicate receive port name accepted")
	}
}

func TestMalleabilityJoinLater(t *testing.T) {
	// Malleability: a member joining mid-run can immediately communicate
	// with existing members.
	tp := newTestPool(t, 3)
	a := tp.join(t, 0, "amuse")
	rp, err := a.CreateReceivePort(ManyToOne, "in", nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < 3; i++ {
		late := tp.join(t, i, "amuse")
		sp := late.CreateSendPort(OneToOne, "out")
		if err := sp.Connect(a.Identifier(), "in", 0); err != nil {
			t.Fatal(err)
		}
		if err := sp.Write([]byte{byte(i)}, 0); err != nil {
			t.Fatal(err)
		}
		m, err := rp.Receive()
		if err != nil {
			t.Fatal(err)
		}
		if len(m.Data) != 1 || int(m.Data[0]) != i {
			t.Fatalf("late joiner %d delivered %v", i, m.Data)
		}
	}
}

// TestPeerListenAndDial: the worker-to-worker stream path — one member
// listens on its peer port, another dials it via PeerAddr of the pool
// identity, and a payload crosses without touching any send/receive port.
func TestPeerListenAndDial(t *testing.T) {
	tp := newTestPool(t, 2)
	a := tp.join(t, 0, "peers")
	b := tp.join(t, 1, "peers")

	l, err := a.ListenPeer()
	if err != nil {
		t.Fatal(err)
	}
	addr := PeerAddr(a.Identifier())
	if want := (smartsockets.Address{Host: tp.hosts[0], Port: 20000 + PeerPortOffset, Hub: tp.hub}); addr != want {
		t.Fatalf("peer addr %v, want %v", addr, want)
	}
	conn, err := b.DialPeer(addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := conn.Send([]byte("columns"), conn.EstablishedAt()); err != nil {
		t.Fatal(err)
	}
	accepted, err := l.Accept()
	if err != nil {
		t.Fatal(err)
	}
	msg, err := accepted.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if string(msg.Data) != "columns" {
		t.Fatalf("peer stream delivered %q", msg.Data)
	}
	if msg.Arrival <= time.Second {
		t.Fatalf("arrival %v not after virtual send time", msg.Arrival)
	}
}

// TestJoinLeaveHammer: many members join and leave one pool at once while
// a resident member watches. A joiner becomes visible to other members'
// broadcasts the moment the registry lists it, so its join ack has to be
// on its connection before that moment: an event overtaking the ack used
// to fail Create with "ipl: bad join ack" about one run in ten under
// concurrent worker starts.
func TestJoinLeaveHammer(t *testing.T) {
	const joiners, rounds = 32, 3
	tp := newTestPool(t, joiners+1)
	resident, err := Create(tp.net, Config{
		Pool: "amuse", Host: tp.hosts[0], BasePort: 20000, HubHost: tp.hub,
		Registry: tp.registry.Addr(), EventBuffer: 4 * joiners * rounds,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(resident.End)

	var wg sync.WaitGroup
	for i := 1; i <= joiners; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				ib, err := Create(tp.net, Config{
					Pool: "amuse", Host: tp.hosts[i], BasePort: 20000,
					HubHost: tp.hub, Registry: tp.registry.Addr(),
				})
				if err != nil {
					t.Errorf("joiner %d round %d: %v", i, r, err)
					return
				}
				if len(ib.Members()) == 0 {
					t.Errorf("joiner %d round %d: empty join snapshot", i, r)
				}
				ib.End()
			}
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	// Every join and every leave reaches the resident, and its view of the
	// pool converges on itself alone.
	joined, left := 0, 0
	deadline := time.After(10 * time.Second)
	for joined < joiners*rounds || left < joiners*rounds {
		select {
		case ev := <-resident.Events():
			switch ev.Kind {
			case Joined:
				joined++
			case Left:
				left++
			case Died:
				t.Fatalf("member %v reported dead: it left gracefully", ev.Member)
			}
		case <-deadline:
			t.Fatalf("resident saw %d joins and %d leaves, want %d of each", joined, left, joiners*rounds)
		}
	}
	if m := resident.Members(); len(m) != 1 || m[0] != resident.Identifier() {
		t.Fatalf("resident's pool view after the storm: %v", m)
	}
	if m := tp.registry.Members("amuse"); len(m) != 1 {
		t.Fatalf("registry's pool after the storm: %v", m)
	}
}

// TestOwnershipWriteFanOut: a send port connected to N receive ports hands
// every connection a slice of its own, so a receiver that scribbles over
// the message it was given (it owns it) cannot change what another
// receiver reads.
func TestOwnershipWriteFanOut(t *testing.T) {
	tp := newTestPool(t, 4)
	src := tp.join(t, 0, "amuse")
	sp := src.CreateSendPort(OneToMany, "bcast")
	var rps []*ReceivePort
	for i := 1; i < 4; i++ {
		r := tp.join(t, i, "amuse")
		rp, err := r.CreateReceivePort(OneToOne, "bc", nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := sp.Connect(r.Identifier(), "bc", 0); err != nil {
			t.Fatal(err)
		}
		rps = append(rps, rp)
	}
	if err := sp.Write([]byte("to every port"), 0); err != nil {
		t.Fatal(err)
	}
	for i, rp := range rps {
		m, err := rp.Receive()
		if err != nil {
			t.Fatal(err)
		}
		if string(m.Data) != "to every port" {
			t.Fatalf("receiver %d read %q: it shares its message with an earlier receiver", i, m.Data)
		}
		for j := range m.Data {
			m.Data[j] = '#'
		}
	}
}

// TestOwnershipRegistryBroadcast: a membership event is encoded once and
// sent to every member; each member's connection gets its own clone.
func TestOwnershipRegistryBroadcast(t *testing.T) {
	tp := newTestPool(t, 4)
	f, err := smartsockets.NewFactory(tp.net, tp.hosts[0], 30000, tp.hub)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	// Three members that speak the registry protocol by hand, so the test
	// holds the raw event messages.
	var raw []*smartsockets.VirtualConn
	for i := 0; i < 3; i++ {
		conn, err := f.Connect(tp.registry.Addr(), 0)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		join := Identifier{Pool: "amuse", Host: tp.hosts[0], Port: 31000 + i}
		if err := conn.Send(encodeReg(&regMsg{Kind: rJoin, Member: join}), 0); err != nil {
			t.Fatal(err)
		}
		if msg, err := conn.Recv(); err != nil {
			t.Fatal(err)
		} else if ack, err := decodeReg(msg.Data); err != nil || ack.Kind != rJoinAck {
			t.Fatalf("join ack: %+v, %v", ack, err)
		}
		for _, earlier := range raw { // drain this member's Joined event
			if _, err := earlier.Recv(); err != nil {
				t.Fatal(err)
			}
		}
		raw = append(raw, conn)
	}
	late := tp.join(t, 1, "amuse")
	for i, conn := range raw {
		msg, err := conn.Recv()
		if err != nil {
			t.Fatal(err)
		}
		ev, err := decodeReg(msg.Data)
		if err != nil || ev.Kind != rEvent || EventKind(ev.Event) != Joined || ev.Member != late.Identifier() {
			t.Fatalf("member %d read %+v (%v): it shares the event with an earlier member", i, ev, err)
		}
		for j := range msg.Data {
			msg.Data[j] = 0xFF
		}
	}
}

// TestLeakPortsCloseWithTheirOwner: a receive port owns the connections
// attached to it and an instance owns the send ports it created, so
// closing the owner closes the connection — and ends the reader goroutine
// parked on it at the other side.
func TestLeakPortsCloseWithTheirOwner(t *testing.T) {
	tp := newTestPool(t, 2)
	a, b := tp.join(t, 0, "amuse"), tp.join(t, 1, "amuse")
	attached := func(rp *ReceivePort) int {
		rp.mu.Lock()
		defer rp.mu.Unlock()
		return len(rp.conns)
	}
	waitFor := func(what string, cond func() bool) {
		t.Helper()
		for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", what)
			}
		}
	}
	connect := func(name string) (*SendPort, *ReceivePort) {
		t.Helper()
		rp, err := b.CreateReceivePort(OneToOne, name, nil)
		if err != nil {
			t.Fatal(err)
		}
		sp := a.CreateSendPort(OneToOne, name)
		if err := sp.Connect(b.Identifier(), name, 0); err != nil {
			t.Fatal(err)
		}
		waitFor("the connection to attach", func() bool { return attached(rp) == 1 })
		return sp, rp
	}

	sp, rp := connect("closed-by-receiver")
	rp.Close()
	waitFor("the sender to see its connection closed", func() bool { return sp.Write([]byte("x"), 0) != nil })

	_, rp = connect("closed-by-sender-exit")
	a.End() // never closed the send port itself
	waitFor("the reader of the ended sender's connection to exit", func() bool { return attached(rp) == 0 })
}
