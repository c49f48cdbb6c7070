package ipl

import (
	"fmt"
	"sync"
	"time"

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
// instead of explicit Receive calls.
type ReceivePort struct {
	ibis *Ibis
	typ  PortType
	name string

	mu     sync.Mutex
	cond   *sync.Cond
	queue  []ReadMessage
	conns  int
	closed bool
	upcall func(ReadMessage)
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
	return &SendPort{ibis: ib, typ: typ, name: name}
}

// CreateReceivePort creates and enables a named receive port. If upcall is
// non-nil it is invoked (sequentially) for each message; otherwise use
// Receive.
func (ib *Ibis) CreateReceivePort(typ PortType, name string, upcall func(ReadMessage)) (*ReceivePort, error) {
	rp := &ReceivePort{ibis: ib, typ: typ, name: name, upcall: upcall}
	rp.cond = sync.NewCond(&rp.mu)
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
	addr := smartsockets.Address{Host: to.Host, Port: to.Port + 1}
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
// one-to-one ports). It returns an error if any connection failed.
func (sp *SendPort) Write(data []byte, sentAt time.Duration) error {
	sp.mu.Lock()
	conns := make([]*portConn, len(sp.conns))
	copy(conns, sp.conns)
	sp.mu.Unlock()
	if len(conns) == 0 {
		return fmt.Errorf("ipl: send port %q not connected", sp.name)
	}
	for _, pc := range conns {
		if err := pc.conn.Send(data, sentAt); err != nil {
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
}

// attach wires an accepted connection into the receive port and starts its
// reader.
func (rp *ReceivePort) attach(from Identifier, conn *smartsockets.VirtualConn) {
	rp.mu.Lock()
	if rp.closed {
		rp.mu.Unlock()
		conn.Close()
		return
	}
	rp.conns++
	rp.mu.Unlock()
	go func() {
		defer conn.Close()
		for {
			msg, err := conn.Recv()
			if err != nil {
				rp.mu.Lock()
				rp.conns--
				rp.mu.Unlock()
				return
			}
			rm := ReadMessage{From: from, Data: msg.Data, Arrival: msg.Arrival}
			rp.mu.Lock()
			up := rp.upcall
			if up == nil {
				rp.queue = append(rp.queue, rm)
				rp.cond.Signal()
			}
			rp.mu.Unlock()
			if up != nil {
				up(rm)
			}
		}
	}()
}

// Receive blocks for the next message (explicit receive mode).
func (rp *ReceivePort) Receive() (ReadMessage, error) {
	rp.mu.Lock()
	defer rp.mu.Unlock()
	for len(rp.queue) == 0 && !rp.closed {
		rp.cond.Wait()
	}
	if len(rp.queue) == 0 {
		return ReadMessage{}, ErrClosed
	}
	m := rp.queue[0]
	rp.queue = rp.queue[1:]
	return m, nil
}

// Close disables the port and unblocks receivers.
func (rp *ReceivePort) Close() {
	rp.mu.Lock()
	if rp.closed {
		rp.mu.Unlock()
		return
	}
	rp.closed = true
	rp.cond.Broadcast()
	rp.mu.Unlock()
	ib := rp.ibis
	ib.mu.Lock()
	delete(ib.recvPorts, rp.name)
	ib.mu.Unlock()
}

// interface check: ReadMessage carries vnet arrival semantics.
var _ = vnet.Message{}
