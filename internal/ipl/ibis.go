package ipl

import (
	"fmt"
	"sync"
	"time"

	"jungle/internal/gostack"
	"jungle/internal/smartsockets"
	"jungle/internal/vnet"
	"jungle/internal/watchdog"
)

// Ibis is one IPL instance: a pool member able to create send and receive
// ports. Each instance owns a SmartSockets factory and a registry
// connection.
type Ibis struct {
	id      Identifier
	network *vnet.Network
	factory *smartsockets.Factory
	regConn *smartsockets.VirtualConn

	mu        sync.Mutex
	members   map[int]Identifier
	elections map[string]Identifier
	electWait map[string][]chan Identifier
	recvPorts map[string]*ReceivePort
	sendPorts map[*SendPort]struct{} // open send ports, closed with the instance
	events    chan Event
	closed    bool

	dataListener *smartsockets.Listener
	wg           sync.WaitGroup
}

// Config configures Create.
type Config struct {
	Pool     string
	Host     string
	BasePort int    // factory identity port; data traffic uses BasePort+1
	HubHost  string // site hub to register with
	Registry smartsockets.Address
	// EventBuffer is the size of the event channel (default 128). If the
	// application does not drain events, the oldest are dropped.
	EventBuffer int
}

// Create joins the pool and returns a ready Ibis instance, mirroring
// ibis.ipl.IbisFactory.createIbis.
func Create(network *vnet.Network, cfg Config) (*Ibis, error) {
	if cfg.EventBuffer <= 0 {
		cfg.EventBuffer = 128
	}
	f, err := smartsockets.NewFactory(network, cfg.Host, cfg.BasePort, cfg.HubHost)
	if err != nil {
		return nil, fmt.Errorf("ipl: create: %w", err)
	}
	ib := &Ibis{
		network:   network,
		factory:   f,
		members:   make(map[int]Identifier),
		elections: make(map[string]Identifier),
		electWait: make(map[string][]chan Identifier),
		recvPorts: make(map[string]*ReceivePort),
		sendPorts: make(map[*SendPort]struct{}),
		events:    make(chan Event, cfg.EventBuffer),
	}

	// Join the registry.
	conn, err := f.Connect(cfg.Registry, 0)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("ipl: join registry: %w", err)
	}
	conn.SetClass("ipl")
	join := Identifier{Pool: cfg.Pool, Host: cfg.Host, Port: cfg.BasePort}
	if cfg.HubHost != cfg.Host {
		join.Hub = cfg.HubHost
	}
	if err := conn.Send(encodeReg(&regMsg{Kind: rJoin, Member: join}), 0); err != nil {
		f.Close()
		return nil, err
	}
	msg, err := conn.Recv()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("ipl: join registry: %w", err)
	}
	ack, err := decodeReg(msg.Data)
	if err != nil || ack.Kind != rJoinAck {
		f.Close()
		return nil, fmt.Errorf("ipl: bad join ack: %v", err)
	}
	ib.id = ack.Member
	ib.regConn = conn
	for _, m := range ack.Members {
		ib.members[m.ID] = m
	}

	// Data listener: all inbound port connections arrive here and are
	// demultiplexed by the handshake's port name.
	dl, err := f.Listen(cfg.BasePort + 1)
	if err != nil {
		conn.Close()
		f.Close()
		return nil, err
	}
	ib.dataListener = dl
	ib.wg.Add(2)
	go ib.registryLoop()
	go ib.dataAcceptLoop()
	return ib, nil
}

// Identifier returns this instance's pool identity.
func (ib *Ibis) Identifier() Identifier { return ib.id }

// PeerAddr returns the peer-stream address of a pool member: where its
// ListenPeer listener accepts direct worker-to-worker transfers.
func PeerAddr(id Identifier) smartsockets.Address {
	return smartsockets.Address{Host: id.Host, Port: id.Port + PeerPortOffset, Hub: id.hub()}
}

// ListenPeer opens this instance's peer-stream listener (PeerAddr of its
// identity). Bulk state moving worker-to-worker arrives here, bypassing
// the daemon on the user's machine entirely; like every factory listener
// it accepts direct, reverse and hub-routed connections.
func (ib *Ibis) ListenPeer() (*smartsockets.Listener, error) {
	return ib.factory.Listen(ib.id.Port + PeerPortOffset)
}

// DialPeer opens a virtual connection to another member's peer listener
// through the overlay. sentAt is the caller's virtual clock.
func (ib *Ibis) DialPeer(addr smartsockets.Address, sentAt time.Duration) (*smartsockets.VirtualConn, error) {
	return ib.factory.Connect(addr, sentAt)
}

// Events returns the membership/election event stream.
func (ib *Ibis) Events() <-chan Event { return ib.events }

// Elect runs (or queries) an election: the first caller for a name wins.
func (ib *Ibis) Elect(name string) (Identifier, error) {
	ib.mu.Lock()
	if w, ok := ib.elections[name]; ok {
		ib.mu.Unlock()
		return w, nil
	}
	ch := make(chan Identifier, 1)
	ib.electWait[name] = append(ib.electWait[name], ch)
	ib.mu.Unlock()
	if err := ib.regConn.Send(encodeReg(&regMsg{Kind: rElect, Election: name}), 0); err != nil {
		return Identifier{}, err
	}
	t := watchdog.Start(5 * time.Second) // watchdog: the registry died before answering -> election timed out
	defer watchdog.Stop(t)
	select {
	case w := <-ch:
		return w, nil
	case <-t.C:
		return Identifier{}, fmt.Errorf("ipl: election %q timed out", name)
	}
}

// End leaves the pool gracefully and releases resources.
func (ib *Ibis) End() {
	if ib.shutdown(true) {
		ib.wg.Wait()
	}
}

// Kill simulates a crash: everything is torn down without a registry leave,
// so the pool observes a Died event. Used for fault-injection tests and the
// paper's "reservation ended, worker killed by the scheduler" scenario.
func (ib *Ibis) Kill() { ib.shutdown(false) }

// shutdown closes the registry connection (after a leave message when
// leave is set), every port the instance created — a process that is gone
// neither receives nor holds connections open — the data listener and the
// factory. It reports false if the instance was already shut down.
func (ib *Ibis) shutdown(leave bool) bool {
	ib.mu.Lock()
	if ib.closed {
		ib.mu.Unlock()
		return false
	}
	ib.closed = true
	recv := make([]*ReceivePort, 0, len(ib.recvPorts))
	for _, p := range ib.recvPorts {
		recv = append(recv, p)
	}
	send := make([]*SendPort, 0, len(ib.sendPorts))
	for p := range ib.sendPorts {
		send = append(send, p)
	}
	ib.mu.Unlock()
	if leave {
		ib.regConn.Send(encodeReg(&regMsg{Kind: rLeave}), 0)
	}
	ib.regConn.Close()
	for _, p := range recv {
		p.Close()
	}
	for _, p := range send {
		p.Close()
	}
	ib.dataListener.Close()
	ib.factory.Close()
	return true
}

func (ib *Ibis) registryLoop() {
	defer ib.wg.Done()
	gostack.Grow()
	// The loop is the only event producer; consumers ranging over Events()
	// terminate when the instance ends or is killed.
	defer close(ib.events)
	for {
		msg, err := ib.regConn.Recv()
		if err != nil {
			return
		}
		m, err := decodeReg(msg.Data)
		if err != nil {
			continue
		}
		switch m.Kind {
		case rEvent:
			ev := Event{Kind: EventKind(m.Event), Member: m.Member, Election: m.Election, At: msg.Arrival}
			ib.mu.Lock()
			switch ev.Kind {
			case Joined:
				ib.members[m.Member.ID] = m.Member
			case Left, Died:
				delete(ib.members, m.Member.ID)
			case Elected:
				ib.elections[m.Election] = m.Member
				for _, ch := range ib.electWait[m.Election] {
					ch <- m.Member
				}
				delete(ib.electWait, m.Election)
			}
			ib.mu.Unlock()
			ib.pushEvent(ev)
		case rElectRes:
			ib.mu.Lock()
			ib.elections[m.Election] = m.Winner
			for _, ch := range ib.electWait[m.Election] {
				ch <- m.Winner
			}
			delete(ib.electWait, m.Election)
			ib.mu.Unlock()
		}
	}
}

// pushEvent delivers an event, dropping the oldest on overflow so slow
// consumers cannot wedge the registry reader.
func (ib *Ibis) pushEvent(ev Event) {
	for {
		select {
		case ib.events <- ev:
			return
		default:
			select {
			case <-ib.events:
			default:
			}
		}
	}
}

func (ib *Ibis) dataAcceptLoop() {
	defer ib.wg.Done()
	for {
		conn, err := ib.dataListener.Accept()
		if err != nil {
			return
		}
		ib.wg.Add(1)
		go ib.handleData(conn)
	}
}

// handleData reads the handshake and attaches the connection to the target
// receive port, whose reader it then runs: the goroutine keeps the stack
// it grew for the handshake, and End's wait covers the readers.
func (ib *Ibis) handleData(conn *smartsockets.VirtualConn) {
	defer ib.wg.Done()
	gostack.Grow()
	msg, err := conn.Recv()
	if err != nil {
		conn.Close()
		return
	}
	h, err := decodeHeader(msg.Data)
	if err != nil {
		conn.Close()
		return
	}
	ib.mu.Lock()
	rp := ib.recvPorts[h.PortName]
	ib.mu.Unlock()
	if rp == nil {
		conn.Close()
		return
	}
	rp.attach(h.From, conn)
}
