// Package smartsockets reimplements the SmartSockets connectivity layer of
// the Ibis framework (Maassen & Bal, HPDC'07) on the virtual network: an
// overlay of hubs, plus a socket-like factory that transparently works
// around firewalls and NATs using three strategies, in order:
//
//  1. direct connection,
//  2. reverse connection setup — a request travels through the hub overlay
//     and the (firewalled) target dials back, exploiting that firewalls
//     usually permit outbound traffic,
//  3. routed connection — application data is relayed hub-to-hub over the
//     overlay as a last resort.
//
// Hubs that cannot reach each other directly fall back to SSH tunnels
// (cluster front-ends usually accept SSH), and links that could only be
// established in one direction are tracked as such — these are exactly the
// red lines and arrows of Fig. 10 in the paper.
//
// Hubs gossip their link state, and the hub a dialer is registered with
// routes one copy of a reverse request or a circuit open along the path it
// computes from that graph: the route is a pure function of the graph, no
// timer and no goroutine race decides it. See DESIGN.md §"Overlay routing".
package smartsockets

import (
	"fmt"
	"strconv"
	"strings"
)

// Address identifies a virtual socket endpoint: a host, a port in the
// factory's port space, and — as in SmartSockets itself — the hub the
// endpoint's factory registered with, so a dialer's hub can route to the
// destination's hub without looking anything up.
type Address struct {
	Host string
	Port int
	Hub  string
}

// String renders "host:port@hub" ("host:port" when no hub is named).
func (a Address) String() string {
	var b [64]byte
	s := strconv.AppendInt(append(append(b[:0], a.Host...), ':'), int64(a.Port), 10)
	if a.Hub != "" {
		s = append(append(s, '@'), a.Hub...)
	}
	return string(s)
}

// ParseAddress parses "host:port@hub" or "host:port".
func ParseAddress(s string) (Address, error) {
	addr, hub, _ := strings.Cut(s, "@")
	i := strings.LastIndexByte(addr, ':')
	if i < 0 {
		return Address{}, fmt.Errorf("smartsockets: address %q missing port", s)
	}
	port, err := strconv.Atoi(addr[i+1:])
	if err != nil {
		return Address{}, fmt.Errorf("smartsockets: bad port in %q: %v", s, err)
	}
	return Address{Host: addr[:i], Port: port, Hub: hub}, nil
}

// ConnType classifies how a virtual connection was established.
type ConnType int

const (
	// Direct: a plain connection succeeded.
	Direct ConnType = iota
	// Reverse: the target dialed back through its firewall after a
	// reverse-connection request was delivered over the hub overlay.
	Reverse
	// Routed: application data is relayed through the hub overlay.
	Routed
)

func (t ConnType) String() string {
	switch t {
	case Direct:
		return "direct"
	case Reverse:
		return "reverse"
	case Routed:
		return "routed"
	default:
		return fmt.Sprintf("ConnType(%d)", int(t))
	}
}

// EdgeType classifies a hub-to-hub overlay link.
type EdgeType int

const (
	// EdgeDirect: both hubs can dial each other.
	EdgeDirect EdgeType = iota
	// EdgeSSH: the link runs over an SSH tunnel to a front-end.
	EdgeSSH
	// EdgeOneWay: only one side could initiate (arrow in Fig. 10).
	EdgeOneWay
)

func (t EdgeType) String() string {
	switch t {
	case EdgeDirect:
		return "direct"
	case EdgeSSH:
		return "ssh-tunnel"
	case EdgeOneWay:
		return "one-way"
	default:
		return fmt.Sprintf("EdgeType(%d)", int(t))
	}
}

// HubPort is the well-known port hubs listen on.
const HubPort = 17878
