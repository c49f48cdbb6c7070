package smartsockets

import (
	"cmp"
	"fmt"
	"maps"
	"slices"
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
	// changed, when set by the Overlay that started this hub, gets a token
	// after every change to the state Overlay.converged reads.
	changed chan<- struct{}

	mu         sync.Mutex
	conns      map[string]*vnet.Conn   // identity -> primary conn ("h:<host>" or "c#<n>")
	allConns   map[*vnet.Conn]struct{} // every conn with a live readLoop, incl. non-primary duplicates
	edges      map[string]EdgeType     // peer hub host -> edge type
	dialed     map[string]bool         // peer hub hosts this hub has dialed (or is dialing) itself
	adverts    map[string]advert       // hub host -> newest advertisement received, this hub's own included
	clients    map[Address]string      // registered service address -> client identity
	circuits   map[string]*circuit
	nextClient int
	busy       int // merges in progress (busyAdd)
	closed     bool

	listeners []*vnet.Listener
	wg        sync.WaitGroup
}

type circuit struct {
	aID, bID string // identities of the two neighbors of this hub on the circuit
	closedBy string // the neighbor whose end's close came through already
}

// HubEdge describes one overlay link as seen from a hub.
type HubEdge struct {
	Local, Peer string
	Type        EdgeType
}

// newHub creates a hub on the given host and starts its listeners (the hub
// port and, to emulate tunnelling via sshd, the SSH port).
func newHub(network *vnet.Network, host string, changed chan<- struct{}) (*Hub, error) {
	h := &Hub{
		host:     host,
		net:      network,
		changed:  changed,
		conns:    make(map[string]*vnet.Conn),
		allConns: make(map[*vnet.Conn]struct{}),
		edges:    make(map[string]EdgeType),
		dialed:   make(map[string]bool),
		adverts:  map[string]advert{host: {Hub: host, Seq: 1}},
		clients:  make(map[Address]string),
		circuits: make(map[string]*circuit),
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

// busyAdd brackets (+1, -1) a handler that has link state left to spread —
// a merge may dial hubs, change the database and gossip it: an overlay is
// not converged while one runs.
func (h *Hub) busyAdd(d int) {
	h.mu.Lock()
	h.busy += d
	h.mu.Unlock()
	select {
	case h.changed <- struct{}{}:
	default: // a token is waiting already, or nobody listens
	}
}

// ConnectTo attempts to establish an overlay link to a peer hub: first a
// direct dial to the hub port, then an SSH tunnel via the peer's front-end
// sshd. If neither works the peer may still connect to us (a one-way link).
// A link the peer dialed does not stand in for our own attempt: both
// directions are always tried, so the edge types the overlay reports do not
// depend on whether the peer's hello was processed before this call. The
// peer registers the link before it answers, so on return both hubs hold it.
func (h *Hub) ConnectTo(peerHost string) error {
	h.mu.Lock()
	if h.dialed[peerHost] || peerHost == h.host || h.closed {
		h.mu.Unlock()
		return nil
	}
	h.dialed[peerHost] = true // claimed before the dial: gossip arriving meanwhile must not dial again
	h.mu.Unlock()

	conn, err := h.net.Dial(h.host, peerHost, HubPort)
	edge := EdgeDirect
	if err != nil {
		conn, err = h.net.Dial(h.host, peerHost, vnet.SSHPort)
		edge = EdgeSSH
	}
	var reply *frame
	if err == nil {
		conn.SetClass("hub")
		if err = sendFrame(conn, &frame{Kind: kHello, Hub: h.host, Adverts: h.database()}); err == nil {
			reply, err = recvFrame(conn)
		}
		if err != nil {
			conn.Close()
		}
	}
	if err != nil {
		h.mu.Lock()
		delete(h.dialed, peerHost)
		h.mu.Unlock()
		return fmt.Errorf("smartsockets: hub %s cannot reach hub %s: %w", h.host, peerHost, err)
	}
	if edge == EdgeDirect {
		// If the peer could not have dialed us, the link is one-way.
		if ok, _ := h.net.AllowsInboundFrom(h.host, peerHost, HubPort); !ok {
			edge = EdgeOneWay
		}
	}
	fresh := h.addPeer(peerHost, conn, edge)
	if fresh {
		// The peer has this hub's database as of the hello: not what arrived
		// while the hello was under way (floods only reach registered links),
		// nor the advertisement just re-issued with the link in it.
		h.sendTo("h:"+peerHost, &frame{Kind: kGossip, Hub: h.host, Adverts: h.database()})
	}
	h.merge(reply.Adverts, peerHost, fresh)
	return nil
}

// database returns every advertisement this hub holds.
func (h *Hub) database() []advert {
	h.mu.Lock()
	defer h.mu.Unlock()
	return slices.Collect(maps.Values(h.adverts))
}

// hubPeer returns the hub host behind a neighbor identity.
func hubPeer(id string) (string, bool) { return strings.CutPrefix(id, "h:") }

// advertiseLocked rebuilds this hub's own advertisement from its live hub
// links, under the next Seq.
func (h *Hub) advertiseLocked() {
	ad := advert{Hub: h.host, Seq: h.adverts[h.host].Seq + 1}
	for id := range h.conns {
		peer, ok := hubPeer(id)
		if !ok {
			continue
		}
		if p, err := h.net.Route(h.host, peer); err == nil {
			ad.Links = append(ad.Links, link{Peer: peer, Latency: p.Latency})
		}
	}
	sort.Slice(ad.Links, func(i, j int) bool { return ad.Links[i].Peer < ad.Links[j].Peer })
	h.adverts[h.host] = ad
}

// flood forwards ads — advertisements that were news to this hub — to every
// hub neighbor except from, the one they came from, which holds them. With
// own, this hub's advertisement was just re-issued (a link gained or lost)
// and rides along; from, the other end of a new link, has it already — in
// the hello's answer, or in the database the dialer sends once the link is
// up. Only those two carry a whole database; a flood carries what changed,
// so gossip converges and then goes quiet.
func (h *Hub) flood(ads []advert, from string, own bool) {
	h.mu.Lock()
	self := h.adverts[h.host]
	h.mu.Unlock()
	if own {
		ads = append(ads[:len(ads):len(ads)], self)
	}
	if len(ads) == 0 {
		return
	}
	g := &frame{Kind: kGossip, Hub: h.host, Adverts: ads}
	for _, l := range self.Links {
		if l.Peer != from {
			h.sendTo("h:"+l.Peer, g)
		}
	}
}

// addPeer records a hub-hub connection and starts its reader. The first
// connection per peer becomes the primary used for sending: it is a new
// link, so the hub's own advertisement changes, which addPeer reports for
// the caller to gossip.
func (h *Hub) addPeer(peerHost string, conn *vnet.Conn, edge EdgeType) (fresh bool) {
	id := "h:" + peerHost
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		conn.Close()
		return false
	}
	_, dup := h.conns[id]
	if !dup {
		h.conns[id] = conn
		h.advertiseLocked()
	}
	h.allConns[conn] = struct{}{}
	// Parallel connection attempts in both directions race; keep the
	// strongest edge classification (direct > ssh > one-way, the order the
	// types are declared in) rather than letting the last arrival
	// downgrade an established tunnel.
	if cur, ok := h.edges[peerHost]; !ok || edge < cur {
		h.edges[peerHost] = edge
	}
	h.mu.Unlock()
	h.wg.Add(1)
	go h.readLoop(id, conn, !dup)
	return !dup
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
		h.busyAdd(1)                          // until the new link is gossiped: the dialer may spread it first
		fresh := h.addPeer(f.Hub, conn, edge) // reader started inside
		// The answer, on the connection the hello came in on, tells the
		// dialer the link is registered here and shares our view with it.
		sendFrame(conn, &frame{Kind: kGossip, Hub: h.host, Adverts: h.database()})
		h.merge(f.Adverts, f.Hub, fresh)
		h.busyAdd(-1)
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
		h.mu.Unlock()
		h.handleFrame(id, f) // stores the registration and acks it
		h.wg.Add(1)
		go h.readLoop(id, conn, true)
	default:
		conn.Close()
	}
}

// merge stores every advertisement of ads — received from hub from — that
// is newer than the one held, links to hubs heard of for the first time,
// and floods the newer ones on (with own, the caller re-issued this hub's
// advertisement, which goes along).
func (h *Hub) merge(ads []advert, from string, own bool) {
	h.busyAdd(1)
	defer h.busyAdd(-1)
	var fresh []string
	newer := ads[:0:0]
	h.mu.Lock()
	for _, ad := range ads {
		cur, known := h.adverts[ad.Hub]
		if ad.Hub == h.host || known && ad.Seq <= cur.Seq {
			continue
		}
		h.adverts[ad.Hub] = ad
		newer = append(newer, ad)
		if !known {
			fresh = append(fresh, ad.Hub)
		}
	}
	h.mu.Unlock()
	for _, x := range fresh {
		h.ConnectTo(x) // best effort; one-way peers will dial us instead
	}
	h.flood(newer, from, own)
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

// dropConn forgets a broken connection. Losing the primary connection to a
// hub neighbor loses the link: the hub withdraws it from its advertisement,
// so no hub routes over it any more.
func (h *Hub) dropConn(id string, conn *vnet.Conn, primary bool) {
	conn.Close()
	h.mu.Lock()
	delete(h.allConns, conn)
	lost := primary && h.conns[id] == conn
	if lost {
		delete(h.conns, id)
		for addr, cid := range h.clients {
			if cid == id {
				delete(h.clients, addr)
			}
		}
	}
	_, hub := hubPeer(id)
	withdraw := lost && hub && !h.closed
	if withdraw {
		h.advertiseLocked()
	}
	h.mu.Unlock()
	if withdraw {
		h.flood(nil, "", true)
	}
}

func (h *Hub) handleFrame(origin string, f *frame) {
	switch f.Kind {
	case kHello, kGossip:
		from, _ := hubPeer(origin)
		h.merge(f.Adverts, from, false)
	case kRegister:
		h.mu.Lock()
		h.clients[Address{f.Src.Host, f.Src.Port, h.host}] = origin
		h.mu.Unlock()
		h.sendTo(origin, &frame{Kind: kRegisterAck, Src: f.Src, sentAt: f.sentAt + hubProcessing})
	case kUnregister:
		h.mu.Lock()
		if addr := (Address{f.Src.Host, f.Src.Port, h.host}); h.clients[addr] == origin {
			delete(h.clients, addr)
		}
		h.mu.Unlock()
	case kReverseReq, kCircuitOpen:
		h.forwardOpen(origin, f)
	case kCircuitAck, kCircuitNak:
		h.handleBacktrack(origin, f)
	case kCircuitClose:
		h.relayClose(origin, f)
	}
}

// forwardOpen moves a reverse request or a circuit open one hop along its
// route. The dialer's hub picks the whole route; every hub on it adds its
// processing delay and hands the one copy on, the last one to the client.
// A hub that cannot — no route, no such client, a broken link — answers
// with a nak that backtracks the route, so the dialer fails at once.
func (h *Hub) forwardOpen(origin string, f *frame) {
	fwd := *f
	fwd.sentAt = f.sentAt + hubProcessing
	fwd.Hop++
	nak := func(reason byte) {
		h.handleBacktrack(origin, &frame{
			Kind: kCircuitNak, Src: f.Src, Dst: f.Dst, Circuit: f.Circuit,
			ReqID: f.ReqID, Route: fwd.Route, Hop: fwd.Hop, Reason: reason, sentAt: fwd.sentAt,
		})
	}
	if f.Hop == 0 {
		if fwd.Route = h.route(f.Dst.Hub); fwd.Route == nil {
			fwd.Route = []string{h.host} // the nak's whole way back
			nak(nakNoRoute)
			return
		}
	}
	switch {
	case f.Hop < 0 || fwd.Hop > len(fwd.Route) || fwd.Route[f.Hop] != h.host:
		// not addressed to us; drop
	case fwd.Hop < len(fwd.Route):
		if !h.sendTo("h:"+fwd.Route[fwd.Hop], &fwd) {
			nak(nakNoRoute)
		}
	default:
		h.mu.Lock()
		dstID := h.clients[f.Dst]
		h.mu.Unlock()
		if !h.sendTo(dstID, &fwd) {
			nak(nakNoListener)
		}
	}
}

// route returns the hub path from this hub to hub dst, or nil if there is
// none: a pure function of the link-state database. Lowest sum of link
// latency and hub processing delay, then fewest hops, then the
// lexicographically smallest path. It is Dijkstra over the advertised links
// with whole paths as labels, so that ties compare that way; a link counts
// in the direction its owner advertises it.
func (h *Hub) route(dst string) []string {
	h.mu.Lock()
	defer h.mu.Unlock()
	type label struct {
		cost time.Duration
		path []string
		done bool
	}
	better := func(a, b *label) bool {
		return cmp.Or(cmp.Compare(a.cost, b.cost), cmp.Compare(len(a.path), len(b.path)), slices.Compare(a.path, b.path)) < 0
	}
	labels := map[string]*label{h.host: {path: []string{h.host}}}
	for {
		var cur *label
		for _, l := range labels {
			if !l.done && (cur == nil || better(l, cur)) {
				cur = l
			}
		}
		if cur == nil {
			return nil
		}
		at := cur.path[len(cur.path)-1]
		if at == dst {
			return cur.path
		}
		cur.done = true
		for _, l := range h.adverts[at].Links {
			next := &label{cost: cur.cost + l.Latency + hubProcessing, path: append(cur.path[:len(cur.path):len(cur.path)], l.Peer)}
			if old, ok := labels[l.Peer]; !ok || !old.done && better(next, old) {
				labels[l.Peer] = next
			}
		}
	}
}

// handleBacktrack walks an ack or nak backwards along the route,
// installing circuit relay state for acks.
func (h *Hub) handleBacktrack(origin string, f *frame) {
	if f.Hop < 1 || f.Hop > len(f.Route) || f.Route[f.Hop-1] != h.host {
		return // not addressed to us; drop
	}
	back := *f
	back.Hop--
	back.sentAt = f.sentAt + hubProcessing

	var nextID string
	if back.Hop == 0 {
		h.mu.Lock()
		nextID = h.clients[f.Src]
		h.mu.Unlock()
		if nextID == "" {
			return // requester vanished
		}
	} else {
		nextID = "h:" + f.Route[back.Hop-1]
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

// relayClose forwards one end's close frame along a circuit; the second
// one, from the other end, dismantles it (see routedEnd).
func (h *Hub) relayClose(origin string, f *frame) {
	h.mu.Lock()
	c := h.circuits[f.Circuit]
	if c != nil && c.closedBy != "" && c.closedBy != origin {
		delete(h.circuits, f.Circuit)
	} else if c != nil {
		c.closedBy = origin
	}
	h.mu.Unlock()
	if c == nil {
		return
	}
	fwd := *f
	fwd.sentAt = f.sentAt + hubProcessing
	h.sendTo(c.next(origin), &fwd)
}

// sendTo sends f to a neighbor and reports whether the neighbor's
// connection took it; broken neighbors are dropped by their reader.
func (h *Hub) sendTo(id string, f *frame) bool {
	h.mu.Lock()
	conn := h.conns[id]
	h.mu.Unlock()
	return conn != nil && sendFrame(conn, f) == nil
}
