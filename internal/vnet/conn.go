package vnet

import (
	"fmt"
	"sync"
	"time"

	"jungle/internal/fifo"
)

// Message is a datagram delivered over a Conn, stamped with the virtual time
// at which it arrives at the receiver.
type Message struct {
	Data    []byte
	Arrival time.Duration
}

// Conn is one endpoint of a bidirectional, message-based virtual connection.
// Delivery is reliable and ordered. Virtual timing: a message sent at sender
// time t arrives at t + path latency + size/bandwidth; receivers advance
// their own clocks to max(local, arrival).
type Conn struct {
	local, remote string // host names
	port          int
	path          Path // from local to remote
	net           *Network

	out  *fifo.Queue[Message]
	in   *fifo.Queue[Message]
	peer *Conn

	mu     sync.Mutex
	closed bool
	cell   *Cell // where Send counts; nil until SetClass or, for class "", the first Send
}

// Path returns the routed path from this endpoint to the peer.
func (c *Conn) Path() Path { return c.path }

// SetClass tags the connection's traffic (e.g. "ipl", "mpi") for the
// recorder on both endpoints: each resolves the cell of its direction
// here, once.
func (c *Conn) SetClass(class string) {
	for _, end := range [2]*Conn{c, c.peer} {
		cell := c.net.Cell(end.local, end.remote, class)
		end.mu.Lock()
		end.cell = cell
		end.mu.Unlock()
	}
}

// Send transmits data; sentAt is the sender's virtual time. It returns the
// virtual arrival time at the receiver. Send takes ownership of data: the
// slice itself is what the receiver gets, so the caller must neither read
// nor write it afterwards. A caller that keeps or fans out a buffer sends
// a clone, unless it is both ends of the message, as mpisim's float
// collectives are (their parts are views, their broadcasts shared).
func (c *Conn) Send(data []byte, sentAt time.Duration) (time.Duration, error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return 0, ErrClosed
	}
	if c.cell == nil {
		c.cell = c.net.Cell(c.local, c.remote, "")
	}
	cell := c.cell
	c.mu.Unlock()
	arrival := sentAt + c.path.TransferTime(len(data))
	// Recorded before it is delivered: whoever has seen the message (or
	// anything it caused) finds its bytes in the recorder. A message the
	// peer's close beats to the queue is counted although it is dropped.
	cell.Add(len(data))
	if !c.out.Push(Message{Data: data, Arrival: arrival}) {
		return 0, ErrClosed
	}
	return arrival, nil
}

// Recv blocks until a message is available (or the connection is closed) and
// returns it. The caller is responsible for advancing its clock to
// msg.Arrival.
func (c *Conn) Recv() (Message, error) {
	msg, ok := c.in.Pop()
	if !ok {
		return Message{}, ErrClosed
	}
	return msg, nil
}

// Close tears down both endpoints and drops the pair from the network's
// live-connection index.
func (c *Conn) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	c.mu.Unlock()
	c.in.Close()
	c.out.Close()
	c.peer.mu.Lock()
	c.peer.closed = true
	c.peer.mu.Unlock()
	c.net.untrackConn(c)
	return nil
}

func (c *Conn) String() string {
	return fmt.Sprintf("%s->%s:%d", c.local, c.remote, c.port)
}

// Listener accepts inbound virtual connections on a host port.
type Listener struct {
	host    *Host
	port    int
	net     *Network
	backlog fifo.Queue[*Conn]
}

// EphemeralFirst is the port Listen(host, 0) tries first. Ephemeral ports
// count down from it to -1<<23 and no explicit Listen may take one, so no
// port a caller names stands in an ephemeral port's way; each crosses the
// wire in the same 4 bytes (wire's zig-zag int).
const EphemeralFirst = -1 << 20

// Listen opens a listener on host:port; port 0 takes the first free
// ephemeral port (Listener.Port reports it).
func (n *Network) Listen(host string, port int) (*Listener, error) {
	h := n.Host(host)
	if h == nil {
		return nil, fmt.Errorf("%w: %q", ErrUnknownHost, host)
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if !h.up {
		return nil, ErrHostDown
	}
	if port < 0 {
		return nil, fmt.Errorf("%w: %s:%d is an ephemeral port", ErrPortInUse, host, port)
	}
	if port == 0 {
		port = EphemeralFirst
		for h.listeners[port] != nil && port > -1<<23 {
			port--
		}
	}
	if _, ok := h.listeners[port]; ok {
		return nil, fmt.Errorf("%w: %s:%d", ErrPortInUse, host, port)
	}
	l := &Listener{host: h, port: port, net: n}
	h.listeners[port] = l
	return l, nil
}

// Port returns the port the listener holds.
func (l *Listener) Port() int { return l.port }

// Accept blocks until an inbound connection arrives.
func (l *Listener) Accept() (*Conn, error) {
	c, ok := l.backlog.Pop()
	if !ok {
		return nil, errListenerDone
	}
	return c, nil
}

// Close stops the listener and releases the port.
func (l *Listener) Close() error {
	if !l.backlog.Close() {
		return nil
	}
	l.host.mu.Lock()
	delete(l.host.listeners, l.port)
	l.host.mu.Unlock()
	return nil
}

// Dial opens a connection from host `from` to `to:port`. The destination's
// firewall policy is enforced: a firewalled destination refuses inbound
// dials from other sites, which is exactly the situation SmartSockets'
// reverse connection setup works around.
func (n *Network) Dial(from, to string, port int) (*Conn, error) {
	fh, th := n.Host(from), n.Host(to)
	if fh == nil {
		return nil, fmt.Errorf("%w: %q", ErrUnknownHost, from)
	}
	if th == nil {
		return nil, fmt.Errorf("%w: %q", ErrUnknownHost, to)
	}
	if !fh.Up() || !th.Up() {
		return nil, ErrHostDown
	}
	if !allowsInbound(th, fh.Site, port) {
		return nil, &firewallError{from, to, port, th.Policy}
	}
	fwd, err := n.Route(from, to)
	if err != nil {
		return nil, err
	}
	rev, err := n.Route(to, from)
	if err != nil {
		return nil, err
	}
	th.mu.Lock()
	l, ok := th.listeners[port]
	th.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("%w: %s:%d", ErrRefused, to, port)
	}

	aToB, bToA := new(fifo.Queue[Message]), new(fifo.Queue[Message])
	local := &Conn{local: from, remote: to, port: port, path: fwd, net: n, out: aToB, in: bToA}
	remote := &Conn{local: to, remote: from, port: port, path: rev, net: n, out: bToA, in: aToB}
	local.peer, remote.peer = remote, local
	n.trackConn(local)
	if !l.backlog.Push(remote) {
		n.untrackConn(local)
		return nil, fmt.Errorf("%w: %s:%d", ErrRefused, to, port)
	}
	return local, nil
}

// firewallError is a dial the destination's policy refused. SmartSockets'
// cascade meets one on every direct attempt at a firewalled host and drops
// it, so its text is built only when somebody reads it.
type firewallError struct {
	from, to string
	port     int
	policy   Policy
}

func (e *firewallError) Error() string {
	return fmt.Sprintf("%v: %s -> %s:%d (%s)", ErrFirewalled, e.from, e.to, e.port, e.policy)
}

func (e *firewallError) Unwrap() error { return ErrFirewalled }
