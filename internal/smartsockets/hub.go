package smartsockets

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"jungle/internal/vnet"
)

// Hub is one node of the SmartSockets overlay network. Hubs run on
// well-connected machines (cluster front-ends in the paper) and relay
// control and, if necessary, application traffic between sites whose
// machines cannot connect directly.
type Hub struct {
	host string
	net  *vnet.Network

	mu         sync.Mutex
	conns      map[string]*vnet.Conn   // identity -> primary conn ("h:<host>" or "c#<n>")
	allConns   map[*vnet.Conn]struct{} // every conn with a live readLoop, incl. non-primary duplicates
	edges      map[string]EdgeType     // peer hub host -> edge type
	dialed     map[string]bool         // peer hub hosts this hub has dialed itself
	known      map[string]bool         // gossiped hub hosts
	clients    map[Address]string      // registered service address -> client identity
	hosts      map[string]bool         // hosts with at least one registered client
	circuits   map[string]*circuit
	seen       map[string]bool         // flood dedup
	opens      map[string]*pendingOpen // circuit opens settling at this (destination) hub
	nextClient int
	closed     bool

	listeners []*vnet.Listener
	wg        sync.WaitGroup
}

type circuit struct {
	aID, bID string // identities of the two neighbors of this hub on the circuit
}

// pendingOpen collects the flooded copies of one circuit open at the
// destination hub. Copies arrive in real time, but the path that matters
// is the lowest *virtual* latency one — real goroutine scheduling is
// uncorrelated with modelled link latency, so first-arrival selection
// could relay bulk data over a transatlantic detour two sites never
// needed. The hub lets the copies settle briefly and delivers the
// earliest-arriving one.
type pendingOpen struct {
	dstID string
	best  frame
	// delivered tombstones the entry once the settle timer fired: a copy
	// straggling in on a long path must not open the circuit a second
	// time (a duplicate open would replace the factory's circuit end and
	// orphan frames already in flight on the first).
	delivered bool
}

// openSettle is the real-time window the destination hub waits for
// flooded circuit-open copies before picking the lowest-virtual-latency
// path.
const openSettle = 2 * time.Millisecond

// HubEdge describes one overlay link as seen from a hub.
type HubEdge struct {
	Local, Peer string
	Type        EdgeType
}

// NewHub creates a hub on the given host and starts its listeners (the hub
// port and, to emulate tunnelling via sshd, the SSH port).
func NewHub(network *vnet.Network, host string) (*Hub, error) {
	h := &Hub{
		host:     host,
		net:      network,
		conns:    make(map[string]*vnet.Conn),
		allConns: make(map[*vnet.Conn]struct{}),
		edges:    make(map[string]EdgeType),
		dialed:   make(map[string]bool),
		known:    map[string]bool{host: true},
		clients:  make(map[Address]string),
		hosts:    make(map[string]bool),
		circuits: make(map[string]*circuit),
		seen:     make(map[string]bool),
		opens:    make(map[string]*pendingOpen),
	}
	for _, port := range []int{HubPort, vnet.SSHPort} {
		l, err := network.Listen(host, port)
		if err != nil {
			h.Stop()
			return nil, fmt.Errorf("smartsockets: hub %s: %w", host, err)
		}
		h.listeners = append(h.listeners, l)
		h.wg.Add(1)
		go h.acceptLoop(l, port)
	}
	return h, nil
}

// Host returns the host this hub runs on.
func (h *Hub) Host() string { return h.host }

// Stop shuts the hub down.
func (h *Hub) Stop() {
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		return
	}
	h.closed = true
	conns := h.allConns
	h.allConns = nil // readers exiting from here on find nothing to forget
	h.mu.Unlock()
	for _, l := range h.listeners {
		l.Close()
	}
	for c := range conns {
		c.Close()
	}
	h.wg.Wait()
}

// ConnectTo attempts to establish an overlay link to a peer hub: first a
// direct dial to the hub port, then an SSH tunnel via the peer's front-end
// sshd. If neither works the peer may still connect to us (a one-way link).
// A link the peer dialed does not stand in for our own attempt: both
// directions are always tried, so the edge types the overlay reports do not
// depend on whether the peer's hello was processed before this call.
func (h *Hub) ConnectTo(peerHost string) error {
	h.mu.Lock()
	if h.dialed[peerHost] || peerHost == h.host {
		h.mu.Unlock()
		return nil
	}
	h.mu.Unlock()

	conn, err := h.net.Dial(h.host, peerHost, HubPort)
	edge := EdgeDirect
	if err != nil {
		conn, err = h.net.Dial(h.host, peerHost, vnet.SSHPort)
		edge = EdgeSSH
	}
	if err != nil {
		return fmt.Errorf("smartsockets: hub %s cannot reach hub %s: %w", h.host, peerHost, err)
	}
	conn.SetClass("hub")
	if edge == EdgeDirect {
		// If the peer could not have dialed us, the link is one-way.
		if ok, _ := h.net.AllowsInboundFrom(h.host, peerHost, HubPort); !ok {
			edge = EdgeOneWay
		}
	}
	hello := &frame{Kind: kHello, Hub: h.host, Hubs: h.knownHubs()}
	if err := sendFrame(conn, hello); err != nil {
		conn.Close()
		return err
	}
	h.mu.Lock()
	h.dialed[peerHost] = true
	h.mu.Unlock()
	h.addPeer(peerHost, conn, edge)
	return nil
}

func (h *Hub) knownHubs() []string {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make([]string, 0, len(h.known))
	for k := range h.known {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// addPeer records a hub-hub connection and starts its reader. The first
// connection per peer becomes the primary used for sending.
func (h *Hub) addPeer(peerHost string, conn *vnet.Conn, edge EdgeType) {
	id := "h:" + peerHost
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		conn.Close()
		return
	}
	primary := false
	if _, ok := h.conns[id]; !ok {
		h.conns[id] = conn
		primary = true
	}
	h.allConns[conn] = struct{}{}
	// Parallel connection attempts in both directions race; keep the
	// strongest edge classification (direct > ssh > one-way) rather than
	// letting the last arrival downgrade an established tunnel.
	if cur, ok := h.edges[peerHost]; !ok || edgeRank(edge) > edgeRank(cur) {
		h.edges[peerHost] = edge
	}
	h.known[peerHost] = true
	h.mu.Unlock()
	h.wg.Add(1)
	go h.readLoop(id, conn, primary)
}

// edgeRank orders edge types by connectivity strength.
func edgeRank(t EdgeType) int {
	switch t {
	case EdgeDirect:
		return 2
	case EdgeSSH:
		return 1
	default:
		return 0
	}
}

// Edges returns this hub's overlay links, sorted by peer.
func (h *Hub) Edges() []HubEdge {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make([]HubEdge, 0, len(h.edges))
	for peer, t := range h.edges {
		out = append(out, HubEdge{Local: h.host, Peer: peer, Type: t})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Peer < out[j].Peer })
	return out
}

// KnownHubs returns the gossiped set of hub hosts (including this one).
func (h *Hub) KnownHubs() []string { return h.knownHubs() }

func (h *Hub) acceptLoop(l *vnet.Listener, port int) {
	defer h.wg.Done()
	for {
		conn, err := l.Accept()
		if err != nil {
			return
		}
		conn.SetClass("hub")
		h.wg.Add(1)
		go h.handleInbound(conn, port)
	}
}

// handleInbound classifies a new connection by its first frame: a hub hello
// or a client registration.
func (h *Hub) handleInbound(conn *vnet.Conn, port int) {
	defer h.wg.Done()
	f, err := recvFrame(conn)
	if err != nil {
		conn.Close()
		return
	}
	switch f.Kind {
	case kHello:
		edge := EdgeDirect
		if port == vnet.SSHPort {
			edge = EdgeSSH
		} else if ok, _ := h.net.AllowsInboundFrom(f.Hub, h.host, HubPort); !ok {
			edge = EdgeOneWay
		}
		h.addPeer(f.Hub, conn, edge) // reader started inside
		h.mergeHubs(f.Hubs)
		// Share our own view with the newcomer so gossip flows both ways.
		h.sendTo("h:"+f.Hub, &frame{Kind: kGossip, Hub: h.host, Hubs: h.knownHubs()})
	case kRegister:
		h.mu.Lock()
		if h.closed {
			h.mu.Unlock()
			conn.Close()
			return
		}
		h.nextClient++
		id := fmt.Sprintf("c#%d", h.nextClient)
		h.conns[id] = conn
		h.allConns[conn] = struct{}{}
		h.clients[Address{f.Host, f.Port}] = id
		h.hosts[f.Host] = true
		h.mu.Unlock()
		sendFrame(conn, &frame{Kind: kRegisterAck, Host: f.Host, Port: f.Port, sentAt: f.sentAt + hubProcessing})
		h.wg.Add(1)
		go h.readLoop(id, conn, true)
	default:
		conn.Close()
	}
}

// mergeHubs learns new hub hosts from gossip, tries to link to them, and —
// when the view grew — pushes the enlarged view to all hub neighbors. The
// push only happens on growth, so gossip converges and then goes quiet.
func (h *Hub) mergeHubs(hubs []string) {
	var fresh []string
	h.mu.Lock()
	for _, x := range hubs {
		if !h.known[x] {
			h.known[x] = true
			fresh = append(fresh, x)
		}
	}
	h.mu.Unlock()
	if len(fresh) == 0 {
		return
	}
	for _, x := range fresh {
		h.ConnectTo(x) // best effort; one-way peers will dial us instead
	}
	g := &frame{Kind: kGossip, Hub: h.host, Hubs: h.knownHubs()}
	h.mu.Lock()
	targets := make([]string, 0, len(h.conns))
	for cid := range h.conns {
		if strings.HasPrefix(cid, "h:") {
			targets = append(targets, cid)
		}
	}
	h.mu.Unlock()
	for _, cid := range targets {
		h.sendTo(cid, g)
	}
}

// readLoop processes frames arriving from one neighbor (hub or client).
func (h *Hub) readLoop(id string, conn *vnet.Conn, primary bool) {
	defer h.wg.Done()
	for {
		msg, err := conn.Recv()
		if err != nil {
			h.dropConn(id, conn, primary)
			return
		}
		if kind, circuit, ok := circuitOf(msg.Data); ok && kind == kCircuitData {
			h.relayData(id, circuit, msg)
			continue
		}
		f, err := decodeFrame(msg)
		if err != nil {
			h.dropConn(id, conn, primary)
			return
		}
		h.handleFrame(id, f)
	}
}

func (h *Hub) dropConn(id string, conn *vnet.Conn, primary bool) {
	conn.Close()
	h.mu.Lock()
	delete(h.allConns, conn)
	if primary && h.conns[id] == conn {
		delete(h.conns, id)
		if strings.HasPrefix(id, "c#") {
			for addr, cid := range h.clients {
				if cid == id {
					delete(h.clients, addr)
				}
			}
		}
	}
	h.mu.Unlock()
}

func (h *Hub) handleFrame(origin string, f *frame) {
	switch f.Kind {
	case kHello, kGossip:
		h.mergeHubs(f.Hubs)
	case kRegister:
		h.mu.Lock()
		h.clients[Address{f.Host, f.Port}] = origin
		h.hosts[f.Host] = true
		h.mu.Unlock()
		h.sendTo(origin, &frame{Kind: kRegisterAck, Host: f.Host, Port: f.Port, sentAt: f.sentAt + hubProcessing})
	case kUnregister:
		h.mu.Lock()
		if h.clients[Address{f.Host, f.Port}] == origin {
			delete(h.clients, Address{f.Host, f.Port})
		}
		h.mu.Unlock()
	case kReverseReq, kCircuitOpen:
		h.handleFlood(origin, f)
	case kCircuitAck, kCircuitNak:
		h.handleBacktrack(origin, f)
	case kCircuitClose:
		h.relayClose(origin, f)
	}
}

// floodKey dedups flooded frames.
func floodKey(f *frame) string {
	if f.Kind == kReverseReq {
		return fmt.Sprintf("rev:%s:%d", f.Src, f.ReqID)
	}
	return "open:" + f.Circuit
}

// handleFlood forwards reverse requests and circuit opens across the
// overlay until they reach the hub serving the destination client.
func (h *Hub) handleFlood(origin string, f *frame) {
	key := floodKey(f)
	h.mu.Lock()
	dstID, local := h.clients[f.Dst]
	knownHost := h.hosts[f.Dst.Host]
	seen := h.seen[key]
	h.seen[key] = true
	h.mu.Unlock()

	path := append(append([]string(nil), f.Path...), h.host)
	fwd := *f
	fwd.Path = path
	fwd.sentAt = f.sentAt + hubProcessing
	if f.Class != "" {
		// Class-tagged opens are routed by bandwidth: fold the bandwidth
		// of the hop this frame just crossed into the bottleneck estimate.
		prev := f.Src.Host
		if strings.HasPrefix(origin, "h:") {
			prev = strings.TrimPrefix(origin, "h:")
		}
		if p, err := h.net.Route(prev, h.host); err == nil {
			if fwd.MinBW == 0 || p.Bandwidth < fwd.MinBW {
				fwd.MinBW = p.Bandwidth
			}
		}
	}

	if local {
		if f.Kind == kCircuitOpen {
			// The destination hub sees every flooded copy (the seen map
			// gates forwarding, not delivery) and picks the best path.
			h.collectOpen(dstID, &fwd)
			return
		}
		if seen {
			return
		}
		h.sendTo(dstID, &fwd)
		return
	}
	if seen {
		return
	}
	if knownHost {
		// The destination host is one of ours but the port is not
		// registered: refuse so the caller can fail fast.
		h.handleBacktrack(origin, &frame{
			Kind: kCircuitNak, Src: f.Src, Dst: f.Dst, Circuit: f.Circuit,
			ReqID: f.ReqID, Path: path, sentAt: fwd.sentAt,
		})
		return
	}
	// Forward to all hub neighbors except where it came from — nearest
	// first. The first open to reach the destination installs the
	// circuit, so forwarding in ascending link latency biases the race
	// toward the lowest-latency hub path: a transatlantic detour through
	// the user's machine must not relay bulk transfers between two sites
	// that share a fast link.
	h.mu.Lock()
	targets := make([]string, 0, len(h.conns))
	for cid := range h.conns {
		if strings.HasPrefix(cid, "h:") && cid != origin {
			targets = append(targets, cid)
		}
	}
	h.mu.Unlock()
	sort.Slice(targets, func(i, j int) bool {
		return h.linkLatency(targets[i]) < h.linkLatency(targets[j])
	})
	for _, cid := range targets {
		h.sendTo(cid, &fwd)
	}
}

// linkLatency estimates the virtual latency to a hub neighbor (by conn
// id); unknown routes sort last.
func (h *Hub) linkLatency(cid string) time.Duration {
	peer := strings.TrimPrefix(cid, "h:")
	p, err := h.net.Route(h.host, peer)
	if err != nil {
		return time.Duration(1<<62 - 1)
	}
	return p.Latency
}

// collectOpen records one flooded copy of a circuit open addressed to a
// local client, keeping the copy with the earliest virtual arrival. The
// first copy arms a short real-time settle timer; when it fires the best
// copy — the lowest-virtual-latency hub path — is delivered.
func (h *Hub) collectOpen(dstID string, fwd *frame) {
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		return
	}
	po, ok := h.opens[fwd.Circuit]
	if ok {
		if !po.delivered && betterOpen(&po.best, fwd) {
			po.best = *fwd
		}
		h.mu.Unlock()
		return
	}
	po = &pendingOpen{dstID: dstID, best: *fwd}
	h.opens[fwd.Circuit] = po
	h.mu.Unlock()
	circuit := fwd.Circuit
	time.AfterFunc(openSettle, func() {
		h.mu.Lock()
		po.delivered = true
		best := po.best
		closed := h.closed
		h.mu.Unlock()
		if !closed {
			h.sendTo(po.dstID, &best)
		}
		// Keep the tombstone long enough to absorb any straggler copy
		// still in flight, then drop it — the map must not grow with
		// every circuit ever opened.
		time.AfterFunc(100*openSettle, func() {
			h.mu.Lock()
			delete(h.opens, circuit)
			h.mu.Unlock()
		})
	})
}

// betterOpen decides whether a newly arrived circuit-open copy beats the
// current best. Bulk-class opens prefer the widest bottleneck bandwidth
// (ties broken by earliest virtual arrival); every other class keeps the
// lowest-virtual-latency path.
func betterOpen(cur, cand *frame) bool {
	if cand.Class == "bulk" && cand.MinBW != cur.MinBW {
		return cand.MinBW > cur.MinBW
	}
	return cand.sentAt < cur.sentAt
}

// handleBacktrack walks an ack or nak backwards along the recorded path,
// installing circuit relay state for acks.
func (h *Hub) handleBacktrack(origin string, f *frame) {
	if len(f.Path) == 0 || f.Path[len(f.Path)-1] != h.host {
		return // not addressed to us; drop
	}
	back := *f
	back.Path = f.Path[:len(f.Path)-1]
	back.sentAt = f.sentAt + hubProcessing

	var nextID string
	if len(back.Path) == 0 {
		h.mu.Lock()
		nextID = h.clients[Address{f.Src.Host, f.Src.Port}]
		h.mu.Unlock()
		if nextID == "" {
			return // requester vanished
		}
	} else {
		nextID = "h:" + back.Path[len(back.Path)-1]
	}
	if f.Kind == kCircuitAck {
		h.mu.Lock()
		h.circuits[f.Circuit] = &circuit{aID: nextID, bID: origin}
		h.mu.Unlock()
	}
	h.sendTo(nextID, &back)
}

// next returns the neighbor a circuit frame arriving from origin is
// forwarded to.
func (c *circuit) next(origin string) string {
	if origin == c.aID {
		return c.bID
	}
	return c.aID
}

// relayData forwards one circuit data message along an established
// circuit as it came: the hub reads the circuit key and never rebuilds the
// frame around the payload.
func (h *Hub) relayData(origin string, circuit []byte, msg vnet.Message) {
	h.mu.Lock()
	c := h.circuits[string(circuit)]
	var conn *vnet.Conn
	if c != nil {
		conn = h.conns[c.next(origin)]
	}
	h.mu.Unlock()
	if conn != nil {
		conn.Send(msg.Data, msg.Arrival+hubProcessing) // best effort, as sendTo
	}
}

// relayClose forwards a close frame along a circuit, dismantling it.
func (h *Hub) relayClose(origin string, f *frame) {
	h.mu.Lock()
	c := h.circuits[f.Circuit]
	delete(h.circuits, f.Circuit)
	h.mu.Unlock()
	if c == nil {
		return
	}
	fwd := *f
	fwd.sentAt = f.sentAt + hubProcessing
	h.sendTo(c.next(origin), &fwd)
}

func (h *Hub) sendTo(id string, f *frame) {
	h.mu.Lock()
	conn := h.conns[id]
	h.mu.Unlock()
	if conn == nil {
		return
	}
	sendFrame(conn, f) // best effort: broken neighbors are dropped by their reader
}
