package smartsockets

import (
	"sync"
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

// Close tears the connection down on both sides. A routed connection's
// Close returns once the peer's end has closed too.
func (c *VirtualConn) Close() error {
	if c.raw != nil {
		return c.raw.Close()
	}
	return c.end.close()
}

// routedEnd is a factory-local endpoint of a routed circuit. Closing q is
// what closes the end: frames arriving afterwards are dropped.
//
// A circuit is dismantled by a two-way handshake: each end sends exactly
// one kCircuitClose — when its application closes it, or in answer to the
// peer's — and every hub forgets the circuit once it has relayed both. (An
// end sending one only if the peer's had not arrived yet put a different
// number of frames on the wire from run to run.) The application's close
// returns when the peer's close has reached this end: by then both have
// crossed every hub, so a caller that has seen both ends closed knows no
// frame of the circuit is still to be sent.
type routedEnd struct {
	factory   *Factory
	key       string
	q         fifo.Queue[vnet.Message]
	closeSent atomic.Bool

	mu         sync.Mutex
	peerClosed bool      // the peer's close arrived, or the hub connection is gone and none will
	released   sync.Cond // broadcast when peerClosed is set; L is mu
}

func newRoutedEnd(f *Factory, key string) *routedEnd {
	e := &routedEnd{factory: f, key: key}
	e.released.L = &e.mu
	return e
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

// close is the application's: it closes the local end, sends this end's
// close unless it went out already, and waits for the peer's — which the
// peer's factory answers as soon as it reads it, or a hub that cannot reach
// the peer answers for it (relayClose, dropConn).
func (e *routedEnd) close() error {
	e.q.Close()
	err := e.sendClose()
	if err == nil {
		e.mu.Lock()
		for !e.peerClosed {
			e.released.Wait()
		}
		e.mu.Unlock()
	}
	e.factory.dropCircuit(e.key)
	return err
}

// peerClose is the peer's close reaching this end, on the factory's reader:
// the end closes and answers, unless its own close went out already.
func (e *routedEnd) peerClose() {
	e.q.Close()
	e.factory.dropCircuit(e.key)
	e.release()
	e.sendClose()
}

// release ends the wait for the peer's close.
func (e *routedEnd) release() {
	e.mu.Lock()
	e.peerClosed = true
	e.released.Broadcast()
	e.mu.Unlock()
}

func (e *routedEnd) sendClose() error {
	if !e.closeSent.CompareAndSwap(false, true) {
		return nil
	}
	return sendFrame(e.factory.hubConn, &frame{Kind: kCircuitClose, Circuit: e.key})
}
