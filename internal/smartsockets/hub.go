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

	"jungle/internal/gostack"
	"jungle/internal/vnet"
	"jungle/internal/wire"
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
	hubIDs     map[string]string       // peer hub host -> its identity "h:<host>", made once by addPeer and kept
	allConns   map[*vnet.Conn]struct{} // every conn with a live readLoop, incl. non-primary duplicates
	edges      map[string]EdgeType     // peer hub host -> edge type
	dialed     map[string]bool         // peer hub hosts this hub has dialed (or is dialing) itself
	adverts    map[string]advert       // hub host -> newest advertisement received, this hub's own included
	routes     map[string][]string     // hub host -> route (see route), made on first use; cleared whenever adverts changes
	clients    map[Address]string      // registered service address -> client identity
	circuits   map[string]circuit
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
		hubIDs:   make(map[string]string),
		allConns: make(map[*vnet.Conn]struct{}),
		edges:    make(map[string]EdgeType),
		dialed:   make(map[string]bool),
		adverts:  map[string]advert{host: {Hub: host, Seq: 1}},
		clients:  make(map[Address]string),
		circuits: make(map[string]circuit),
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
	clear(h.routes)
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
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		conn.Close()
		return false
	}
	id, ok := h.hubIDs[peerHost]
	if !ok {
		id = "h:" + peerHost
		h.hubIDs[peerHost] = id
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
// or a client registration. A client's reader runs on this goroutine, which
// keeps the stack it grew decoding the registration.
func (h *Hub) handleInbound(conn *vnet.Conn, port int) {
	defer h.wg.Done()
	gostack.Grow()
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
		h.handleFrame(id, f, nil) // stores the registration and acks it
		h.wg.Add(1)               // readLoop counts itself out, like every reader
		h.readLoop(id, conn, true)
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
		clear(h.routes)
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
// Every control frame is decoded into f, which the loop keeps: a handler
// keeps nothing of it but strings, and merge takes the adverts. The
// message is the handler's: a relay passes it on.
func (h *Hub) readLoop(id string, conn *vnet.Conn, primary bool) {
	defer h.wg.Done()
	var f keptFrame
	for {
		msg, err := conn.Recv()
		if err != nil {
			h.dropConn(id, conn, primary)
			return
		}
		if kind, circuit, _, ok := circuitOf(msg.Data); ok && kind == kCircuitData {
			h.relayData(id, circuit, msg)
			continue
		}
		if err := f.decode(msg); err != nil {
			h.dropConn(id, conn, primary)
			return
		}
		h.handleFrame(id, &f.frame, msg.Data)
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
	// A circuit whose first close went out to a lost neighbour waits for an
	// answer that cannot come back: the hub answers for that side.
	var orphans []string
	if lost {
		delete(h.conns, id)
		for addr, cid := range h.clients {
			if cid == id {
				delete(h.clients, addr)
			}
		}
		for key, c := range h.circuits {
			if c.closedBy != "" && c.next(c.closedBy) == id {
				orphans = append(orphans, key)
			}
		}
	}
	_, hub := hubPeer(id)
	withdraw := lost && hub && !h.closed
	if withdraw {
		h.advertiseLocked()
	}
	h.mu.Unlock()
	for _, key := range orphans {
		f := &frame{Kind: kCircuitClose, Circuit: key}
		h.relayClose(id, f, wire.Marshal(f))
	}
	if withdraw {
		h.flood(nil, "", true)
	}
}

// handleFrame acts on f, decoded from data as received from neighbor
// origin.
func (h *Hub) handleFrame(origin string, f *frame, data []byte) {
	switch f.Kind {
	case kHello, kGossip:
		from, _ := hubPeer(origin)
		ads := f.Adverts
		f.Adverts = nil // merge stores them: the reader's next decode must not write over them
		h.merge(ads, from, false)
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
		h.forwardOpen(origin, f, data)
	case kCircuitAck, kCircuitNak:
		h.handleBacktrack(origin, f, data)
	case kCircuitClose:
		h.relayClose(origin, f, data)
	}
}

// forwardOpen moves a reverse request or a circuit open one hop along its
// route. The dialer's hub picks the whole route and encodes the frame with
// it; every hub on it forwards the one copy, the last one to the client.
// A hub that cannot — no route, no such client, a broken link — answers
// with a nak that backtracks the route, so the dialer fails at once.
func (h *Hub) forwardOpen(origin string, f *frame, data []byte) {
	hop := f.Hop + 1
	nak := func(reason byte) {
		n := &frame{
			Kind: kCircuitNak, Src: f.Src, Dst: f.Dst, Circuit: f.Circuit,
			ReqID: f.ReqID, Route: f.Route, Hop: hop, Reason: reason, sentAt: f.sentAt + hubProcessing,
		}
		h.handleBacktrack(origin, n, wire.Marshal(n))
	}
	if f.Hop == 0 {
		// The source hub fills in the route: the frame grows, so it is
		// encoded anew (f is the reader's to write).
		if f.Route = h.route(f.Dst.Hub); f.Route == nil {
			f.Route = []string{h.host} // the nak's whole way back
			nak(nakNoRoute)
			return
		}
		data = wire.Marshal(f)
	}
	if f.Hop < 0 || hop > len(f.Route) || f.Route[f.Hop] != h.host {
		return // not addressed to us; drop
	}
	h.mu.Lock()
	next, reason := h.clients[f.Dst], nakNoListener // the last hub delivers
	if hop < len(f.Route) {
		next, reason = h.hubIDs[f.Route[hop]], nakNoRoute
	}
	h.mu.Unlock()
	if !h.forward(next, f, data, hop) {
		nak(reason)
	}
}

// route returns the hub path from this hub to hub dst, or nil if there is
// none: a pure function of the link-state database. Lowest sum of link
// latency and hub processing delay, then fewest hops, then the
// lexicographically smallest path. It is Dijkstra over the advertised links
// with whole paths as labels, so that ties compare that way; a link counts
// in the direction its owner advertises it. A path of more than maxRoute
// hubs counts as none. The answer is computed once per database: h.routes
// keeps it until adverts changes, and every caller shares the slice, which
// nobody writes.
func (h *Hub) route(dst string) []string {
	h.mu.Lock()
	defer h.mu.Unlock()
	p, ok := h.routes[dst]
	if !ok {
		if p = h.dijkstraLocked(dst); len(p) > maxRoute {
			p = nil // its Hop cursor would outgrow the byte relays rewrite (setHop)
		}
		if h.routes == nil {
			h.routes = make(map[string][]string)
		}
		h.routes[dst] = p
	}
	return p
}

func (h *Hub) dijkstraLocked(dst string) []string {
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
func (h *Hub) handleBacktrack(origin string, f *frame, data []byte) {
	if f.Hop < 1 || f.Hop > len(f.Route) || f.Route[f.Hop-1] != h.host {
		return // not addressed to us; drop
	}
	hop := f.Hop - 1
	h.mu.Lock()
	next := h.clients[f.Src] // the first hub hands it to the requester
	if hop > 0 {
		// Route[hop-1] advertises a link to this hub, so this hub's
		// addPeer has made its id.
		next = h.hubIDs[f.Route[hop-1]]
	}
	if next == "" {
		h.mu.Unlock()
		return // the requester vanished, or the route is none of ours
	}
	if f.Kind == kCircuitAck {
		h.circuits[f.Circuit] = circuit{aID: next, bID: origin}
	}
	h.mu.Unlock()
	h.forward(next, f, data, hop)
}

// next returns the neighbor a circuit frame arriving from origin is
// forwarded to.
func (c circuit) next(origin string) string {
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
	var conn *vnet.Conn
	if c, ok := h.circuits[string(circuit)]; ok {
		conn = h.conns[c.next(origin)]
	}
	h.mu.Unlock()
	if conn != nil {
		conn.Send(msg.Data, msg.Arrival+hubProcessing) // best effort, as sendTo
	}
}

// relayClose forwards one end's close frame along a circuit; the second
// one, from the other end, dismantles it (see routedEnd). A first close
// that cannot go on — the far side's connection is gone — is answered as
// if the far side had closed, so the end that closed is not left waiting.
func (h *Hub) relayClose(origin string, f *frame, data []byte) {
	h.mu.Lock()
	c, ok := h.circuits[f.Circuit]
	second := ok && c.closedBy != "" && c.closedBy != origin
	if second {
		delete(h.circuits, f.Circuit)
	} else if ok {
		c.closedBy = origin
		h.circuits[f.Circuit] = c
	}
	h.mu.Unlock()
	if !ok {
		return
	}
	if !h.forward(c.next(origin), f, data, f.Hop) && !second {
		h.relayClose(c.next(origin), f, data)
	}
}

// maxRoute bounds a route's hubs (Hub.route), so that a Hop cursor, at
// most maxRoute, encodes to one byte: zig-zag 2·Hop < 128.
const maxRoute = 63

// setHop rewrites in place the Hop cursor of data, f's encoding, to hop,
// and reports whether data holds f's cursor where the codec puts it. Only
// ReqID, ReplyPort and Reason follow Hop, so its byte is found from the
// end by their encoded widths.
func setHop(data []byte, f *frame, hop int) bool {
	i := len(data) - 1 - wire.UintLen(f.ReqID) - wire.IntLen(int64(f.ReplyPort)) - wire.UintLen(uint64(f.Reason))
	if f.Hop < 0 || f.Hop > maxRoute || hop < 0 || hop > maxRoute || i < 0 || data[i] != byte(2*f.Hop) {
		return false
	}
	data[i] = byte(2 * hop)
	return true
}

// forward relays a control frame to neighbor id, its Hop cursor set to
// hop, at f's arrival plus processing, and reports whether the neighbor's
// connection took it. data is f's encoding — as received, or as this hub
// built or grew the frame — and goes to the neighbor, which owns it from
// then on. Broken neighbors are dropped by their reader.
func (h *Hub) forward(id string, f *frame, data []byte, hop int) bool {
	if !setHop(data, f, hop) {
		return false
	}
	h.mu.Lock()
	conn := h.conns[id]
	h.mu.Unlock()
	if conn == nil {
		return false
	}
	_, err := conn.Send(data, f.sentAt+hubProcessing)
	return err == nil
}

// sendTo sends f, a frame this hub built, to a neighbor and reports
// whether the neighbor's connection took it; broken neighbors are dropped
// by their reader.
func (h *Hub) sendTo(id string, f *frame) bool {
	h.mu.Lock()
	conn := h.conns[id]
	h.mu.Unlock()
	return conn != nil && sendFrame(conn, f) == nil
}
