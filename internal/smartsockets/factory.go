package smartsockets

import (
	"errors"
	"fmt"
	"strconv"
	"sync"
	"time"

	"jungle/internal/fifo"
	"jungle/internal/vnet"
)

// Errors returned by Connect.
var (
	ErrConnectFailed = errors.New("smartsockets: all connection strategies failed")
	ErrNoListener    = errors.New("smartsockets: destination port not listening")
	ErrNoRoute       = errors.New("smartsockets: no hub route to the destination's hub")
	ErrTimeout       = errors.New("smartsockets: connection attempt timed out")
	ErrFactoryClosed = errors.New("smartsockets: factory closed")
)

// Stats counts established outbound connections by type.
type Stats struct {
	Direct, Reverse, Routed int
}

// Factory creates virtual sockets for one process. It mirrors SmartSockets'
// VirtualSocketFactory: it registers with a hub and transparently picks the
// best connection strategy per Connect call.
type Factory struct {
	net     *vnet.Network
	host    string
	base    int // identity port; Address{host, base, hubHost} names this factory
	hubHost string
	hubConn *vnet.Conn

	mu          sync.Mutex
	listeners   map[int]*Listener
	pendingRev  map[uint64]chan revResult
	pendingCirc map[string]chan openResult
	pendingReg  map[Address]chan struct{}
	circuits    map[string]*routedEnd
	nextPort    int
	nextReq     uint64
	nextCircuit uint64
	stats       Stats
	closed      bool

	// Timeout is the real-time watchdog on an overlay round trip. Every
	// outcome — ack, nak, dial-back — arrives as a frame; the watchdog only
	// turns a hub that died mid-exchange into ErrTimeout.
	Timeout time.Duration

	wg sync.WaitGroup
}

type revResult struct {
	conn        *vnet.Conn
	established time.Duration
	err         error
}

// openResult completes a routed circuit open: the error, and on success
// the hub route the circuit was installed along.
type openResult struct {
	err   error
	route []string
}

// NewFactory connects a factory on host to the hub at hubHost. base is this
// process's identity port; listeners and ephemeral ports are allocated above
// it.
func NewFactory(network *vnet.Network, host string, base int, hubHost string) (*Factory, error) {
	conn, err := network.Dial(host, hubHost, HubPort)
	if err != nil {
		// Hubs also listen on the SSH port: a client outside the hub's
		// site can still register through the front-end's sshd, the same
		// tunnel trick hubs use among themselves.
		conn, err = network.Dial(host, hubHost, vnet.SSHPort)
	}
	if err != nil {
		return nil, fmt.Errorf("smartsockets: factory %s cannot reach hub %s: %w", host, hubHost, err)
	}
	conn.SetClass("hub")
	f := &Factory{
		net: network, host: host, base: base, hubHost: hubHost, hubConn: conn,
		listeners:   make(map[int]*Listener),
		pendingRev:  make(map[uint64]chan revResult),
		pendingCirc: make(map[string]chan openResult),
		pendingReg:  make(map[Address]chan struct{}),
		circuits:    make(map[string]*routedEnd),
		nextPort:    base + 1,
		Timeout:     2 * time.Second,
	}
	f.wg.Add(1)
	go f.hubReadLoop()
	if err := f.register(f.Addr()); err != nil {
		f.Close()
		return nil, fmt.Errorf("smartsockets: factory %s register with hub %s: %w", host, hubHost, err)
	}
	return f, nil
}

// register claims a at the hub and waits for the hub's ack, so that once
// register returns, reverse requests and routed opens reaching the hub
// will find the registration (no lost-registration race). Registration
// frames leave the hub's name out: it is the hub they are sent to.
func (f *Factory) register(a Address) error {
	a.Hub = ""
	ch := make(chan struct{}, 1)
	f.mu.Lock()
	f.pendingReg[a] = ch
	f.mu.Unlock()
	defer func() {
		f.mu.Lock()
		delete(f.pendingReg, a)
		f.mu.Unlock()
	}()
	if err := sendFrame(f.hubConn, &frame{Kind: kRegister, Src: a}); err != nil {
		return err
	}
	select {
	case <-ch:
		return nil
	case <-time.After(f.Timeout): // watchdog: hub died before acking the registration -> ErrTimeout
		return ErrTimeout
	}
}

// Addr returns the factory's identity address.
func (f *Factory) Addr() Address { return Address{Host: f.host, Port: f.base, Hub: f.hubHost} }

// Host returns the host the factory runs on.
func (f *Factory) Host() string { return f.host }

// Stats returns outbound connection counts by type.
func (f *Factory) Stats() Stats {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.stats
}

// Close shuts down the factory, its listeners and routed circuits.
func (f *Factory) Close() {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return
	}
	f.closed = true
	ls := make([]*Listener, 0, len(f.listeners))
	for _, l := range f.listeners {
		ls = append(ls, l)
	}
	ends := make([]*routedEnd, 0, len(f.circuits))
	for _, e := range f.circuits {
		ends = append(ends, e)
	}
	f.mu.Unlock()
	for _, l := range ls {
		l.Close()
	}
	for _, e := range ends {
		e.q.Close()
	}
	f.hubConn.Close()
	f.wg.Wait()
}

func (f *Factory) allocPort() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	p := f.nextPort
	f.nextPort++
	return p
}

// hubReadLoop dispatches frames arriving from the hub.
func (f *Factory) hubReadLoop() {
	defer f.wg.Done()
	for {
		fr, err := recvFrame(f.hubConn)
		if err != nil {
			return
		}
		switch fr.Kind {
		case kReverseReq:
			f.wg.Add(1)
			go func() {
				defer f.wg.Done()
				f.handleReverseReq(fr)
			}()
		case kCircuitOpen:
			f.handleCircuitOpen(fr)
		case kCircuitAck:
			f.completeOpen(fr.Circuit, openResult{route: fr.Route})
		case kCircuitNak:
			err := ErrNoListener
			if fr.Reason == nakNoRoute {
				err = ErrNoRoute
			}
			if fr.Circuit != "" {
				f.completeOpen(fr.Circuit, openResult{err: err})
			}
			if fr.ReqID != 0 {
				f.completeRev(fr.ReqID, revResult{err: err})
			}
		case kCircuitData:
			f.mu.Lock()
			end := f.circuits[fr.Circuit]
			f.mu.Unlock()
			if end != nil {
				end.q.Push(vnet.Message{Data: fr.Payload, Arrival: fr.sentAt})
			}
		case kCircuitClose:
			f.mu.Lock()
			end := f.circuits[fr.Circuit]
			f.mu.Unlock()
			if end != nil {
				end.closeBoth() // the peer closed: answer with this end's close
			}
		case kRegisterAck:
			f.mu.Lock()
			ch := f.pendingReg[fr.Src]
			f.mu.Unlock()
			if ch != nil {
				select {
				case ch <- struct{}{}:
				default:
				}
			}
		}
	}
}

func (f *Factory) completeOpen(circuit string, r openResult) {
	f.mu.Lock()
	ch := f.pendingCirc[circuit]
	delete(f.pendingCirc, circuit)
	f.mu.Unlock()
	if ch != nil {
		ch <- r
	}
}

func (f *Factory) completeRev(id uint64, r revResult) {
	f.mu.Lock()
	ch := f.pendingRev[id]
	delete(f.pendingRev, id)
	f.mu.Unlock()
	if ch != nil {
		ch <- r
	}
}

// handleReverseReq performs the dial-back on behalf of a remote requester.
func (f *Factory) handleReverseReq(fr *frame) {
	f.mu.Lock()
	l := f.listeners[fr.Dst.Port]
	f.mu.Unlock()
	nak := &frame{
		Kind: kCircuitNak, Src: fr.Src, Dst: fr.Dst, ReqID: fr.ReqID,
		Route: fr.Route, Hop: fr.Hop, sentAt: fr.sentAt + hubProcessing,
	}
	if l == nil {
		sendFrame(f.hubConn, nak)
		return
	}
	conn, err := f.net.Dial(f.host, fr.Src.Host, fr.ReplyPort)
	if err != nil {
		// The requester is firewalled too; tell it to fall back to routing.
		sendFrame(f.hubConn, nak)
		return
	}
	conn.SetClass("hub") // control plane until the application re-tags it
	ok := &frame{Kind: kDialbackOK, ReqID: fr.ReqID, sentAt: fr.sentAt + hubProcessing}
	if err := sendFrame(conn, ok); err != nil {
		conn.Close()
		return
	}
	vc := &VirtualConn{typ: Reverse, raw: conn, established: ok.sentAt}
	if !l.backlog.Push(vc) {
		conn.Close()
	}
}

// handleCircuitOpen accepts (or refuses) an inbound routed circuit.
func (f *Factory) handleCircuitOpen(fr *frame) {
	f.mu.Lock()
	l := f.listeners[fr.Dst.Port]
	var end *routedEnd
	if l != nil && !f.closed {
		end = &routedEnd{factory: f, key: fr.Circuit}
		f.circuits[fr.Circuit] = end
	}
	f.mu.Unlock()
	kind := byte(kCircuitAck)
	if end == nil {
		kind = kCircuitNak
	}
	reply := &frame{
		Kind: kind, Src: fr.Src, Dst: fr.Dst, Circuit: fr.Circuit,
		Route: fr.Route, Hop: fr.Hop, sentAt: fr.sentAt + hubProcessing,
	}
	sendFrame(f.hubConn, reply)
	if end != nil {
		vc := &VirtualConn{typ: Routed, end: end, established: fr.sentAt, route: fr.Route}
		if !l.backlog.Push(vc) {
			end.q.Close()
		}
	}
}

// Connect opens a virtual connection to target, trying direct, reverse and
// routed strategies in order. sentAt is the caller's virtual clock; the
// returned connection's EstablishedAt reports the virtual completion time.
func (f *Factory) Connect(target Address, sentAt time.Duration) (*VirtualConn, error) {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return nil, ErrFactoryClosed
	}
	f.mu.Unlock()

	// 1: direct.
	conn, err := f.net.Dial(f.host, target.Host, target.Port)
	if err == nil {
		f.mu.Lock()
		f.stats.Direct++
		f.mu.Unlock()
		return &VirtualConn{typ: Direct, raw: conn, established: sentAt + conn.Path().Latency}, nil
	}
	if errors.Is(err, vnet.ErrRefused) {
		// The host is reachable but nothing listens there: no point in
		// reverse or routed attempts.
		return nil, fmt.Errorf("%w: %s", ErrNoListener, target)
	}

	// 2: reverse connection setup through the overlay.
	if vc, err := f.connectReverse(target, sentAt); err == nil {
		f.mu.Lock()
		f.stats.Reverse++
		f.mu.Unlock()
		return vc, nil
	}

	// 3: routed through the hubs.
	vc, err := f.connectRouted(target, sentAt)
	if err != nil {
		return nil, fmt.Errorf("%w: %s (%w)", ErrConnectFailed, target, err)
	}
	f.mu.Lock()
	f.stats.Routed++
	f.mu.Unlock()
	return vc, nil
}

func (f *Factory) connectReverse(target Address, sentAt time.Duration) (*VirtualConn, error) {
	replyPort := f.allocPort()
	vl, err := f.net.Listen(f.host, replyPort)
	if err != nil {
		return nil, err
	}
	defer vl.Close()

	f.mu.Lock()
	f.nextReq++
	id := f.nextReq
	ch := make(chan revResult, 1)
	f.pendingRev[id] = ch
	f.mu.Unlock()
	defer f.completeRev(id, revResult{}) // drop registration if still pending

	req := &frame{
		Kind: kReverseReq, Src: f.Addr(), Dst: target,
		ReqID: id, ReplyPort: replyPort, sentAt: sentAt,
	}
	if err := sendFrame(f.hubConn, req); err != nil {
		return nil, err
	}

	// The dial-back arrives on our ephemeral listener.
	accepted := make(chan revResult, 1)
	go func() {
		conn, err := vl.Accept()
		if err != nil {
			return
		}
		fr, err := recvFrame(conn)
		if err != nil || fr.Kind != kDialbackOK {
			conn.Close()
			return
		}
		accepted <- revResult{conn: conn, established: fr.sentAt}
	}()

	select {
	case r := <-accepted:
		return &VirtualConn{typ: Reverse, raw: r.conn, established: r.established}, nil
	case r := <-ch:
		if r.err == nil {
			r.err = ErrConnectFailed
		}
		return nil, r.err
	case <-time.After(f.Timeout): // watchdog: a hub on the route died with the request in hand -> ErrTimeout
		return nil, ErrTimeout
	}
}

func (f *Factory) connectRouted(target Address, sentAt time.Duration) (*VirtualConn, error) {
	f.mu.Lock()
	f.nextCircuit++
	key := fmt.Sprintf("%s:%d/%s", f.host, f.base, strconv.FormatUint(f.nextCircuit, 36)) // on every data frame: no hub name, a dense count
	ch := make(chan openResult, 1)
	f.pendingCirc[key] = ch
	end := &routedEnd{factory: f, key: key}
	f.circuits[key] = end
	f.mu.Unlock()

	open := &frame{Kind: kCircuitOpen, Src: f.Addr(), Dst: target, Circuit: key, sentAt: sentAt}
	if err := sendFrame(f.hubConn, open); err != nil {
		f.dropCircuit(key)
		return nil, err
	}
	select {
	case r := <-ch:
		if r.err != nil {
			f.dropCircuit(key)
			return nil, r.err
		}
		return &VirtualConn{typ: Routed, end: end, established: sentAt, route: r.route}, nil
	case <-time.After(f.Timeout): // watchdog: a hub on the route died with the open in hand -> ErrTimeout
		f.dropCircuit(key)
		return nil, ErrTimeout
	}
}

func (f *Factory) dropCircuit(key string) {
	f.mu.Lock()
	delete(f.pendingCirc, key)
	delete(f.circuits, key)
	f.mu.Unlock()
}

// Listen opens a virtual listener on the given port: it accepts direct
// dials, reverse dial-backs and routed circuits alike.
func (f *Factory) Listen(port int) (*Listener, error) {
	raw, err := f.net.Listen(f.host, port)
	if err != nil {
		return nil, err
	}
	l := &Listener{factory: f, port: port, raw: raw}
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		raw.Close()
		return nil, ErrFactoryClosed
	}
	f.listeners[port] = l
	f.mu.Unlock()
	if err := f.register(l.Addr()); err != nil {
		l.Close()
		return nil, err
	}
	f.wg.Add(1)
	go func() {
		defer f.wg.Done()
		for {
			conn, err := raw.Accept()
			if err != nil {
				return
			}
			vc := &VirtualConn{typ: Direct, raw: conn}
			if !l.backlog.Push(vc) {
				conn.Close()
			}
		}
	}()
	return l, nil
}

// Listener accepts inbound virtual connections of any type.
type Listener struct {
	factory *Factory
	port    int
	raw     *vnet.Listener
	backlog fifo.Queue[*VirtualConn]
}

// Addr returns the listener's virtual address.
func (l *Listener) Addr() Address {
	return Address{Host: l.factory.host, Port: l.port, Hub: l.factory.hubHost}
}

// Accept blocks for the next inbound connection.
func (l *Listener) Accept() (*VirtualConn, error) {
	vc, ok := l.backlog.Pop()
	if !ok {
		return nil, ErrFactoryClosed
	}
	return vc, nil
}

// Close stops the listener.
func (l *Listener) Close() error {
	if !l.backlog.Close() {
		return nil
	}
	l.raw.Close()
	f := l.factory
	f.mu.Lock()
	delete(f.listeners, l.port)
	closed := f.closed
	f.mu.Unlock()
	if !closed {
		sendFrame(f.hubConn, &frame{Kind: kUnregister, Src: Address{Host: f.host, Port: l.port}})
	}
	return nil
}
