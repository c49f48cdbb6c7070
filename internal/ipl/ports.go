package ipl

import (
	"bytes"
	"fmt"
	"sync"
	"time"

	"jungle/internal/fifo"
	"jungle/internal/smartsockets"
	"jungle/internal/vnet"
)

// SendPort is the sending end of a unidirectional IPL channel.
type SendPort struct {
	ibis *Ibis
	typ  PortType
	name string

	mu    sync.Mutex
	conns []*portConn
}

type portConn struct {
	to   Identifier
	port string
	conn *smartsockets.VirtualConn
}

// ReceivePort is the receiving end. Messages from all connected senders are
// merged into one ordered stream; an optional upcall handler may be set
// instead of explicit Receive calls. The port owns the connections
// attached to it: Close closes them, which ends their readers.
type ReceivePort struct {
	ibis   *Ibis
	typ    PortType
	name   string
	upcall func(ReadMessage)
	queue  fifo.Queue[ReadMessage] // explicit-receive mode

	mu     sync.Mutex
	conns  map[*smartsockets.VirtualConn]struct{}
	closed bool
}

// ReadMessage is one received message with its origin and virtual arrival
// time.
type ReadMessage struct {
	From    Identifier
	Data    []byte
	Arrival time.Duration
}

// CreateSendPort creates a named send port.
func (ib *Ibis) CreateSendPort(typ PortType, name string) *SendPort {
	sp := &SendPort{ibis: ib, typ: typ, name: name}
	ib.mu.Lock()
	ib.sendPorts[sp] = struct{}{}
	ib.mu.Unlock()
	return sp
}

// CreateReceivePort creates and enables a named receive port. If upcall is
// non-nil it is invoked (sequentially) for each message; otherwise use
// Receive.
func (ib *Ibis) CreateReceivePort(typ PortType, name string, upcall func(ReadMessage)) (*ReceivePort, error) {
	rp := &ReceivePort{ibis: ib, typ: typ, name: name, upcall: upcall,
		conns: make(map[*smartsockets.VirtualConn]struct{})}
	ib.mu.Lock()
	defer ib.mu.Unlock()
	if ib.closed {
		return nil, ErrClosed
	}
	if _, ok := ib.recvPorts[name]; ok {
		return nil, fmt.Errorf("ipl: receive port %q already exists", name)
	}
	ib.recvPorts[name] = rp
	return rp, nil
}

// Connect attaches the send port to the named receive port of the given
// member. sentAt is the sender's virtual clock.
func (sp *SendPort) Connect(to Identifier, portName string, sentAt time.Duration) error {
	sp.mu.Lock()
	if sp.typ == OneToOne && len(sp.conns) > 0 {
		sp.mu.Unlock()
		return fmt.Errorf("ipl: one-to-one send port %q already connected", sp.name)
	}
	sp.mu.Unlock()
	addr := smartsockets.Address{Host: to.Host, Port: to.Port + 1, Hub: to.hub()}
	conn, err := sp.ibis.factory.Connect(addr, sentAt)
	if err != nil {
		return fmt.Errorf("ipl: connect %s to %s:%s: %w", sp.name, to, portName, err)
	}
	conn.SetClass("ipl")
	hs := encodeHeader(&dataHeader{PortName: portName, From: sp.ibis.id})
	if err := conn.Send(hs, conn.EstablishedAt()); err != nil {
		conn.Close()
		return err
	}
	sp.mu.Lock()
	sp.conns = append(sp.conns, &portConn{to: to, port: portName, conn: conn})
	sp.mu.Unlock()
	return nil
}

// Write sends a raw payload to all connected receive ports (one for
// one-to-one ports). It returns an error if any connection failed. Write
// takes ownership of data, as the connections underneath do: the last
// connection gets the slice itself, every other one its own clone.
func (sp *SendPort) Write(data []byte, sentAt time.Duration) error {
	sp.mu.Lock()
	conns := sp.conns[:len(sp.conns):len(sp.conns)] // Connect only appends
	sp.mu.Unlock()
	if len(conns) == 0 {
		return fmt.Errorf("ipl: send port %q not connected", sp.name)
	}
	for i, pc := range conns {
		msg := data
		if i < len(conns)-1 {
			msg = bytes.Clone(data)
		}
		if err := pc.conn.Send(msg, sentAt); err != nil {
			return fmt.Errorf("ipl: write to %s: %w", pc.to, err)
		}
	}
	return nil
}

// Close disconnects the send port.
func (sp *SendPort) Close() {
	sp.mu.Lock()
	conns := sp.conns
	sp.conns = nil
	sp.mu.Unlock()
	for _, pc := range conns {
		pc.conn.Close()
	}
	sp.ibis.mu.Lock()
	delete(sp.ibis.sendPorts, sp)
	sp.ibis.mu.Unlock()
}

// attach wires an accepted connection into the receive port and runs its
// reader on the calling goroutine until the connection closes — by the
// sender, or by the port's Close.
func (rp *ReceivePort) attach(from Identifier, conn *smartsockets.VirtualConn) {
	defer conn.Close()
	rp.mu.Lock()
	if rp.closed {
		rp.mu.Unlock()
		return
	}
	rp.conns[conn] = struct{}{}
	rp.mu.Unlock()
	for {
		msg, err := conn.Recv()
		if err != nil {
			rp.mu.Lock()
			delete(rp.conns, conn)
			rp.mu.Unlock()
			return
		}
		rm := ReadMessage{From: from, Data: msg.Data, Arrival: msg.Arrival}
		if rp.upcall != nil {
			rp.upcall(rm)
		} else {
			rp.queue.Push(rm)
		}
	}
}

// Receive blocks for the next message (explicit receive mode).
func (rp *ReceivePort) Receive() (ReadMessage, error) {
	m, ok := rp.queue.Pop()
	if !ok {
		return ReadMessage{}, ErrClosed
	}
	return m, nil
}

// Close disables the port, unblocks receivers and closes the attached
// connections.
func (rp *ReceivePort) Close() {
	rp.mu.Lock()
	if rp.closed {
		rp.mu.Unlock()
		return
	}
	rp.closed = true
	conns := rp.conns
	rp.conns = nil
	rp.mu.Unlock()
	rp.queue.Close()
	for conn := range conns {
		conn.Close()
	}
	ib := rp.ibis
	ib.mu.Lock()
	delete(ib.recvPorts, rp.name)
	ib.mu.Unlock()
}

// interface check: ReadMessage carries vnet arrival semantics.
var _ = vnet.Message{}
