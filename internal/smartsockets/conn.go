package smartsockets

import (
	"sync/atomic"
	"time"

	"jungle/internal/fifo"
	"jungle/internal/vnet"
	"jungle/internal/wire"
)

// VirtualConn is a bidirectional message connection established by a
// Factory. Depending on how connectivity worked out it is backed either by
// a plain vnet connection (direct and reverse types) or by a routed circuit
// through the hub overlay.
type VirtualConn struct {
	typ         ConnType
	raw         *vnet.Conn
	end         *routedEnd
	established time.Duration
	route       []string
}

// Type reports how the connection was established.
func (c *VirtualConn) Type() ConnType { return c.typ }

// EstablishedAt returns the virtual time at which the connection became
// usable at this endpoint (connection setup through the overlay costs
// virtual time).
func (c *VirtualConn) EstablishedAt() time.Duration { return c.established }

// Route returns the hub hosts relaying a routed connection, in order from
// the dialer's hub to the acceptor's. Direct and reverse connections
// return nil: no hub touches their payload bytes.
func (c *VirtualConn) Route() []string { return c.route }

// SetClass tags the underlying traffic for the recorder. Routed circuits
// ride hub connections, whose class is "hub".
func (c *VirtualConn) SetClass(class string) {
	if c.raw != nil {
		c.raw.SetClass(class)
	}
}

// Send transmits data at the sender's virtual time sentAt. Like
// vnet.Conn.Send it takes ownership of data.
func (c *VirtualConn) Send(data []byte, sentAt time.Duration) error {
	if c.raw != nil {
		_, err := c.raw.Send(data, sentAt)
		return err
	}
	return c.end.send(data, sentAt)
}

// Recv blocks for the next message; its Arrival field carries the virtual
// delivery time (including hub relay hops for routed connections).
func (c *VirtualConn) Recv() (vnet.Message, error) {
	if c.raw != nil {
		return c.raw.Recv()
	}
	return c.end.recv()
}

// Close tears the connection down on both sides.
func (c *VirtualConn) Close() error {
	if c.raw != nil {
		return c.raw.Close()
	}
	return c.end.closeBoth()
}

// routedEnd is a factory-local endpoint of a routed circuit. Closing q is
// what closes the end: frames arriving afterwards are dropped.
//
// A circuit is dismantled by a two-way handshake: each end sends exactly
// one kCircuitClose — when its application closes it, or in answer to the
// peer's — and every hub forgets the circuit once it has relayed both. (An
// end sending one only if the peer's had not arrived yet put a different
// number of frames on the wire from run to run.)
type routedEnd struct {
	factory   *Factory
	key       string
	q         fifo.Queue[vnet.Message]
	closeSent atomic.Bool
}

func (e *routedEnd) recv() (vnet.Message, error) {
	m, ok := e.q.Pop()
	if !ok {
		return vnet.Message{}, vnet.ErrClosed
	}
	return m, nil
}

// send encodes the circuit-data frame around data straight into a slice
// presized for it — the frame's one allocation, no pooled scratch — and
// hands it to the hub connection.
func (e *routedEnd) send(data []byte, sentAt time.Duration) error {
	if e.q.Closed() {
		return vnet.ErrClosed
	}
	b := make([]byte, 0, len(e.key)+len(data)+frameOverhead)
	b = wire.Append(b, &frame{Kind: kCircuitData, Circuit: e.key, Payload: data})
	_, err := e.factory.hubConn.Send(b, sentAt)
	return err
}

// closeBoth closes the local end and sends this end's close, unless it
// went out already.
func (e *routedEnd) closeBoth() error {
	e.q.Close()
	f := e.factory
	f.mu.Lock()
	delete(f.circuits, e.key)
	f.mu.Unlock()
	if !e.closeSent.CompareAndSwap(false, true) {
		return nil
	}
	return sendFrame(f.hubConn, &frame{Kind: kCircuitClose, Circuit: e.key})
}
