// Package ipl reimplements the Ibis Portability Layer (van Nieuwpoort et
// al., CCPE 2005): unidirectional, connection-oriented, message-based
// communication designed for Jungle Computing Systems, with a central
// registry providing membership tracking, fault notification (a member
// crash is broadcast to the pool) and malleability (members may join and
// leave a running pool).
//
// Connections are established through the SmartSockets layer, so IPL ports
// work across firewalls and NATs transparently. Beside the port-based
// control plane, every instance owns a peer-stream address
// (PeerAddr/ListenPeer/DialPeer, identity port + PeerPortOffset): the
// direct data plane where bulk worker-to-worker state transfers and gang
// halo links ride the same overlay without touching the daemon.
package ipl

import (
	"cmp"
	"errors"
	"fmt"
	"strconv"
	"time"

	"jungle/internal/wire"
)

// Errors returned by the package.
var (
	ErrClosed     = errors.New("ipl: closed")
	ErrNotMember  = errors.New("ipl: no such pool member")
	ErrNoSuchPort = errors.New("ipl: no such receive port")
	ErrLostElect  = errors.New("ipl: election already decided")
)

// Identifier names one Ibis instance in a pool.
type Identifier struct {
	Pool string
	ID   int    // registry-assigned sequence number
	Host string // host the instance runs on
	Port int    // smartsockets factory identity port
	// Hub is the hub the instance's factory registered with — part of every
	// address derived from the identity. It is left empty, on the wire too,
	// when that hub runs on the instance's own host.
	Hub string
}

// hub returns the host of the instance's hub.
func (id Identifier) hub() string { return cmp.Or(id.Hub, id.Host) }

// String renders "pool/id@host".
func (id Identifier) String() string {
	var b [64]byte
	s := strconv.AppendInt(append(append(b[:0], id.Pool...), '/'), int64(id.ID), 10)
	return string(append(append(s, '@'), id.Host...))
}

// Port layout relative to an instance's identity port: identity+1 is the
// IPL data listener (port connections), identity+PeerPortOffset the peer
// stream listener (bulk worker-to-worker transfers that bypass the
// daemon). Both are SmartSockets virtual ports, so they work across
// firewalls through the hub overlay.
const PeerPortOffset = 2

// EventKind classifies registry events.
type EventKind int

const (
	// Joined: a new member entered the pool.
	Joined EventKind = iota
	// Left: a member left gracefully.
	Left
	// Died: a member's registry connection broke without a leave — the
	// fault-notification mechanism the paper relies on ("an application
	// using IPL will get notified if a machine crashes").
	Died
	// Elected: an election was decided.
	Elected
)

func (k EventKind) String() string {
	switch k {
	case Joined:
		return "joined"
	case Left:
		return "left"
	case Died:
		return "died"
	case Elected:
		return "elected"
	default:
		return fmt.Sprintf("EventKind(%d)", int(k))
	}
}

// Event is a membership or election notification delivered to every pool
// member.
type Event struct {
	Kind     EventKind
	Member   Identifier
	Election string // election name for Elected events
	At       time.Duration
}

// PortType declares the connection discipline of a port pair, mirroring
// IPL's capability sets.
type PortType int

const (
	// OneToOne: a single sender connected to a single receiver.
	OneToOne PortType = iota
	// ManyToOne: multiple senders feed one receiver (used by the daemon's
	// result funnel).
	ManyToOne
	// OneToMany: one sender broadcast to several receivers.
	OneToMany
)

func (t PortType) String() string {
	switch t {
	case OneToOne:
		return "one-to-one"
	case ManyToOne:
		return "many-to-one"
	case OneToMany:
		return "one-to-many"
	default:
		return fmt.Sprintf("PortType(%d)", int(t))
	}
}

// regMsg is the registry wire protocol, in internal/wire's positional
// struct codec.
type regMsg struct {
	Kind     byte
	Event    byte // EventKind for rEvent messages
	Member   Identifier
	Members  []Identifier // join ack: current pool
	Election string
	Winner   Identifier
	OK       bool
}

const (
	rJoin     byte = iota // member -> registry
	rJoinAck              // registry -> member
	rLeave                // member -> registry
	rEvent                // registry -> member (membership change)
	rElect                // member -> registry
	rElectRes             // registry -> member
)

func encodeReg(m *regMsg) []byte { return wire.Marshal(m) }

func decodeReg(data []byte) (*regMsg, error) {
	m := new(regMsg)
	if err := wire.Unmarshal(data, m); err != nil {
		return nil, err
	}
	return m, nil
}

// dataHeader is the first frame on a data connection (send port -> receive
// port), naming the destination port.
type dataHeader struct {
	PortName string
	From     Identifier
}

func encodeHeader(h *dataHeader) []byte { return wire.Marshal(h) }

func decodeHeader(data []byte) (*dataHeader, error) {
	h := new(dataHeader)
	if err := wire.Unmarshal(data, h); err != nil {
		return nil, err
	}
	return h, nil
}
