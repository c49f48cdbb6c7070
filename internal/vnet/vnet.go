// Package vnet simulates the network fabric of a Jungle Computing System:
// hosts grouped into sites, links with latency and bandwidth, firewalls and
// NATs that break inbound connectivity, and message-based connections whose
// delivery times are accounted in virtual time.
//
// It substitutes for the paper's physical testbed (DAS-4 clusters in four
// cities, the LGM GPU cluster, a desktop on 1 GbE, a laptop in Seattle behind
// a transatlantic 1G lightpath). Connectivity pathologies — the reason
// SmartSockets exists — are reproduced via per-host firewall policies.
package vnet

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Common errors returned by dialing.
var (
	ErrUnknownHost  = errors.New("vnet: unknown host")
	ErrNoRoute      = errors.New("vnet: no route to host")
	ErrRefused      = errors.New("vnet: connection refused (no listener)")
	ErrFirewalled   = errors.New("vnet: connection blocked by firewall")
	ErrClosed       = errors.New("vnet: connection closed")
	ErrHostDown     = errors.New("vnet: host is down")
	ErrPortInUse    = errors.New("vnet: port already in use")
	ErrPartitioned  = errors.New("vnet: network partitioned")
	errListenerDone = errors.New("vnet: listener closed")
)

// Policy is a host firewall policy.
type Policy int

const (
	// Open accepts inbound connections from anywhere.
	Open Policy = iota
	// OutboundOnly rejects all inbound connection attempts that originate
	// outside the host's own site (a firewall or NAT). Outbound traffic and
	// intra-site traffic are unaffected, matching cluster-internal networks.
	OutboundOnly
	// SSHOnly rejects inbound connections except on the SSH port (22),
	// modelling the cluster front-ends of the paper through which tunnels
	// are built.
	SSHOnly
)

func (p Policy) String() string {
	switch p {
	case Open:
		return "open"
	case OutboundOnly:
		return "outbound-only"
	case SSHOnly:
		return "ssh-only"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

// SSHPort is the well-known port that SSHOnly hosts still accept.
const SSHPort = 22

// loopbackBandwidth is the modeled bandwidth of a same-host connection
// (bytes/second); see Route.
const loopbackBandwidth = 2e9

// Host is a machine in the virtual network.
type Host struct {
	Name   string
	Site   string
	Policy Policy

	mu        sync.Mutex
	up        bool
	listeners map[int]*Listener
}

// Link connects two hosts (bidirectionally) with a latency and a bandwidth
// in bytes/second. Every connection is priced against the full Bandwidth,
// alone: connections do not share a link (DESIGN.md § What the network
// model does not price).
type Link struct {
	A, B      string
	Latency   time.Duration
	Bandwidth float64
}

// Path is the routed property set between two hosts: total latency, the
// minimum bandwidth along the way, and the hop sequence.
type Path struct {
	Latency   time.Duration
	Bandwidth float64
	Hops      []string
}

// TransferTime returns the virtual time needed to move n bytes across the
// path: latency plus serialization at the bottleneck bandwidth.
func (p Path) TransferTime(n int) time.Duration {
	d := p.Latency
	if n > 0 && p.Bandwidth > 0 {
		d += time.Duration(float64(n) / p.Bandwidth * float64(time.Second))
	}
	return d
}

// TrafficRecorder counts bytes moved between hosts, used by the trace
// package to regenerate the Fig. 11 traffic visualization. It hands out
// the counter of one (from, to, class), the same counter for every
// request of a key; nil counts nothing.
type TrafficRecorder interface {
	TrafficCounter(from, to, class string) *atomic.Int64
}

// Cell is where one (from, to, class)'s bytes are counted: the installed
// recorder's counter for the key, or nowhere. A network keeps one cell
// per key and SetRecorder re-points them all, so a sender resolves its
// cell once (a Conn when its class is set) and counts each message with
// one atomic add, taking no lock.
type Cell struct {
	ctr atomic.Pointer[atomic.Int64]
}

// Add counts n bytes.
func (c *Cell) Add(n int) {
	if ctr := c.ctr.Load(); ctr != nil {
		ctr.Add(int64(n))
	}
}

type cellKey struct{ from, to, class string }

// Network is the virtual fabric: hosts, links and routes.
type Network struct {
	mu       sync.RWMutex
	hosts    map[string]*Host
	adj      map[string][]Link
	routes   map[[2]string]Path            // cache, invalidated on topology change
	conns    map[string]map[*Conn]struct{} // live dialer-side conns by endpoint host (for CrashHost)
	recorder TrafficRecorder
	cells    map[cellKey]*Cell // every key Cell resolved, re-pointed by SetRecorder
	spare    []Cell            // made in blocks: a new key costs no allocation of its own
}

// New returns an empty network.
func New() *Network {
	return &Network{
		hosts:  make(map[string]*Host),
		adj:    make(map[string][]Link),
		routes: make(map[[2]string]Path),
		conns:  make(map[string]map[*Conn]struct{}),
		cells:  make(map[cellKey]*Cell),
	}
}

// SetRecorder installs a traffic recorder; nil disables recording. Every
// cell is re-pointed at once: bytes sent after it returns go to r, and
// the old recorder keeps what it had.
func (n *Network) SetRecorder(r TrafficRecorder) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.recorder = r
	for k, c := range n.cells {
		c.ctr.Store(n.counterLocked(k))
	}
}

// Cell returns the cell that counts the bytes sent from -> to under
// class, made on the key's first request.
func (n *Network) Cell(from, to, class string) *Cell {
	k := cellKey{from, to, class}
	n.mu.RLock()
	c := n.cells[k]
	n.mu.RUnlock()
	if c != nil {
		return c
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if c = n.cells[k]; c == nil {
		if len(n.spare) == 0 {
			n.spare = make([]Cell, 64)
		}
		c, n.spare = &n.spare[0], n.spare[1:]
		c.ctr.Store(n.counterLocked(k))
		n.cells[k] = c
	}
	return c
}

func (n *Network) counterLocked(k cellKey) *atomic.Int64 {
	if n.recorder == nil {
		return nil
	}
	return n.recorder.TrafficCounter(k.from, k.to, k.class)
}

// AddHost creates a host at the given site with the given firewall policy.
func (n *Network) AddHost(name, site string, p Policy) (*Host, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, ok := n.hosts[name]; ok {
		return nil, fmt.Errorf("vnet: host %q already exists", name)
	}
	h := &Host{Name: name, Site: site, Policy: p, up: true, listeners: make(map[int]*Listener)}
	n.hosts[name] = h
	n.routes = make(map[[2]string]Path)
	return h, nil
}

// Host returns the named host, or nil.
func (n *Network) Host(name string) *Host {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.hosts[name]
}

// AddLink connects hosts a and b bidirectionally.
func (n *Network) AddLink(a, b string, latency time.Duration, bandwidth float64) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, ok := n.hosts[a]; !ok {
		return fmt.Errorf("%w: %q", ErrUnknownHost, a)
	}
	if _, ok := n.hosts[b]; !ok {
		return fmt.Errorf("%w: %q", ErrUnknownHost, b)
	}
	l := Link{A: a, B: b, Latency: latency, Bandwidth: bandwidth}
	n.adj[a] = append(n.adj[a], l)
	n.adj[b] = append(n.adj[b], Link{A: b, B: a, Latency: latency, Bandwidth: bandwidth})
	n.routes = make(map[[2]string]Path)
	return nil
}

// Recorder returns the installed traffic recorder (nil when none). The
// observability plane uses it to find the testbed's trace recorder from
// layers that only see the network.
func (n *Network) Recorder() TrafficRecorder {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.recorder
}

// SetHostUp marks a host up or down; dialing a down host (or through it)
// fails, and its listeners are unreachable. Fault injection: tests only.
func (n *Network) SetHostUp(name string, up bool) error {
	h := n.Host(name)
	if h == nil {
		return fmt.Errorf("%w: %q", ErrUnknownHost, name)
	}
	h.mu.Lock()
	h.up = up
	h.mu.Unlock()
	return nil
}

// CrashHost simulates a machine vanishing: the host goes down, its
// listeners close and every live connection with an endpoint on it breaks.
// This is the paper's hard fault ("a machine crashes"), as opposed to a
// scheduler cancel. Fault injection: tests only.
func (n *Network) CrashHost(name string) error {
	h := n.Host(name)
	if h == nil {
		return fmt.Errorf("%w: %q", ErrUnknownHost, name)
	}
	h.mu.Lock()
	h.up = false
	listeners := make([]*Listener, 0, len(h.listeners))
	for _, l := range h.listeners {
		listeners = append(listeners, l)
	}
	h.mu.Unlock()
	for _, l := range listeners {
		l.Close()
	}
	n.mu.Lock()
	conns := n.conns[name]
	delete(n.conns, name)
	n.mu.Unlock()
	for c := range conns {
		c.Close()
	}
	return nil
}

// trackConn indexes a dialed connection under both endpoint hosts for
// CrashHost, until either end closes it.
func (n *Network) trackConn(c *Conn) {
	n.mu.Lock()
	for _, host := range [2]string{c.local, c.remote} {
		if n.conns[host] == nil {
			n.conns[host] = make(map[*Conn]struct{})
		}
		n.conns[host][c] = struct{}{}
	}
	n.mu.Unlock()
}

// untrackConn forgets a closed connection, whichever end closed it (only
// the dialer side is indexed; deleting the other is a no-op).
func (n *Network) untrackConn(c *Conn) {
	n.mu.Lock()
	for _, host := range [2]string{c.local, c.remote} {
		delete(n.conns[host], c)
		delete(n.conns[host], c.peer)
	}
	n.mu.Unlock()
}

// Up reports whether the host is up.
func (h *Host) Up() bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.up
}

// Route computes (and caches) the lowest-latency path between two hosts
// using Dijkstra over link latencies. Down hosts do not forward traffic.
func (n *Network) Route(from, to string) (Path, error) {
	if from == to {
		// Loopback: the paper measures >8 Gbit/s and "extremely small
		// latency" for the daemon's local socket; model 10 µs / 16 Gbit/s.
		return Path{Latency: 10 * time.Microsecond, Bandwidth: loopbackBandwidth, Hops: []string{from}}, nil
	}
	n.mu.RLock()
	if p, ok := n.routes[[2]string{from, to}]; ok {
		n.mu.RUnlock()
		return p, nil
	}
	n.mu.RUnlock()

	n.mu.Lock()
	defer n.mu.Unlock()
	if p, ok := n.routes[[2]string{from, to}]; ok {
		return p, nil
	}
	if _, ok := n.hosts[from]; !ok {
		return Path{}, fmt.Errorf("%w: %q", ErrUnknownHost, from)
	}
	if _, ok := n.hosts[to]; !ok {
		return Path{}, fmt.Errorf("%w: %q", ErrUnknownHost, to)
	}
	p, err := n.dijkstraLocked(from, to)
	if err != nil {
		return Path{}, err
	}
	n.routes[[2]string{from, to}] = p
	return p, nil
}

func (n *Network) dijkstraLocked(from, to string) (Path, error) {
	type state struct {
		lat  time.Duration
		bw   float64
		prev string
		done bool
	}
	st := map[string]*state{from: {bw: 1e30}}
	for {
		// Extract the unfinished node with minimal (latency, name): n is
		// small, and a linear scan keeps the code simple. The name breaks
		// ties, so between equal-latency paths the one taken — and with it
		// the path's bandwidth and hops — does not depend on map order.
		var cur string
		var curSt *state
		for name, s := range st {
			if s.done {
				continue
			}
			if curSt == nil || s.lat < curSt.lat || s.lat == curSt.lat && name < cur {
				cur, curSt = name, s
			}
		}
		if curSt == nil {
			return Path{}, ErrNoRoute
		}
		if cur == to {
			// Reconstruct hops.
			hops := []string{to}
			for at := to; at != from; {
				at = st[at].prev
				hops = append(hops, at)
			}
			for i, j := 0, len(hops)-1; i < j; i, j = i+1, j-1 {
				hops[i], hops[j] = hops[j], hops[i]
			}
			return Path{Latency: curSt.lat, Bandwidth: curSt.bw, Hops: hops}, nil
		}
		curSt.done = true
		// Down hosts (other than the endpoints' own status, checked at
		// dial time) do not forward.
		if h := n.hosts[cur]; h != nil && cur != from && !h.Up() {
			continue
		}
		for _, l := range n.adj[cur] {
			lat := curSt.lat + l.Latency
			bw := curSt.bw
			if l.Bandwidth < bw {
				bw = l.Bandwidth
			}
			s, ok := st[l.B]
			if !ok {
				st[l.B] = &state{lat: lat, bw: bw, prev: cur}
			} else if !s.done && lat < s.lat {
				s.lat, s.bw, s.prev = lat, bw, cur
			}
		}
	}
}

// Reachable reports whether a route exists between two (up) hosts.
func (n *Network) Reachable(from, to string) bool {
	hf, ht := n.Host(from), n.Host(to)
	if hf == nil || ht == nil || !hf.Up() || !ht.Up() {
		return false
	}
	_, err := n.Route(from, to)
	return err == nil
}

// allowsInbound applies the destination host's firewall policy.
func allowsInbound(dst *Host, fromSite string, port int) bool {
	switch dst.Policy {
	case Open:
		return true
	case OutboundOnly:
		return fromSite == dst.Site
	case SSHOnly:
		return fromSite == dst.Site || port == SSHPort
	default:
		return false
	}
}

// AllowsInboundFrom reports whether the destination host would accept a
// connection on port from a host at fromSite. Exposed for SmartSockets'
// connection planning.
func (n *Network) AllowsInboundFrom(dst, from string, port int) (bool, error) {
	d, f := n.Host(dst), n.Host(from)
	if d == nil {
		return false, fmt.Errorf("%w: %q", ErrUnknownHost, dst)
	}
	if f == nil {
		return false, fmt.Errorf("%w: %q", ErrUnknownHost, from)
	}
	return allowsInbound(d, f.Site, port), nil
}
