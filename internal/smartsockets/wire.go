package smartsockets

import (
	"time"

	"jungle/internal/vnet"
	"jungle/internal/wire"
)

// frame is the single wire format used on hub-hub and client-hub
// connections, in internal/wire's positional struct codec. Kind selects
// which fields are meaningful; unused fields cross as one zero byte each.
// Kind and Circuit lead so that a hub relaying circuit data reads those two
// and forwards the message as it came (see circuitOf).
type frame struct {
	Kind    byte
	Circuit string
	Payload []byte

	// Hub protocol.
	Hub  string   // sender hub (hello/gossip)
	Hubs []string // known hubs (gossip)

	// Client registration.
	Host string
	Port int

	// Overlay routing (flooded frames carry the path of hubs visited; acks
	// and closes follow the recorded path backwards).
	Src, Dst Address
	Path     []string
	// Route is the full hub path of an established circuit, copied into
	// the kCircuitAck by the accepting factory. Unlike Path it is not
	// consumed by the backtrack, so the dialer learns which hubs relay
	// its traffic (Fig. 10's routed lines).
	Route []string

	// Reverse connection setup.
	ReqID     uint64
	ReplyPort int

	// Connection class of a circuit open ("" = default RPC class, routed
	// by lowest virtual latency). Bulk-class opens are routed by bottleneck
	// bandwidth instead: each hub folds the bandwidth of the hop the frame
	// just crossed into MinBW, and the destination hub picks the copy with
	// the widest bottleneck.
	Class string
	MinBW float64

	// sentAt is the virtual clock of the sender when the frame is emitted
	// and, on a received frame, its virtual arrival time; relays re-stamp
	// with arrival plus processing delay. It is the send time handed to
	// vnet, not a wire field (the codec skips unexported fields).
	sentAt time.Duration
}

const (
	kHello        byte = iota // hub -> hub: identify + known hubs
	kGossip                   // hub -> hub: known hub list update
	kRegister                 // client -> hub: claim (host, port)
	kUnregister               // client -> hub: release (host, port)
	kReverseReq               // flooded: ask Dst to dial back Src:ReplyPort
	kCircuitOpen              // flooded: open a routed circuit to Dst
	kCircuitAck               // backtracks Path: circuit established
	kCircuitNak               // backtracks Path: circuit refused
	kCircuitData              // follows circuit table
	kCircuitClose             // follows circuit table, dismantling it
	kDialbackOK               // first frame on a reverse dial-back conn
	kRegisterAck              // hub -> client: (host, port) registration stored
)

// hubProcessing is the virtual per-hop processing delay a hub adds when
// relaying a frame.
const hubProcessing = 200 * time.Microsecond

// frameOverhead bounds what a frame carrying only Circuit and Payload
// encodes to beyond those two: kind, two length prefixes of at most 9
// bytes, and one zero byte per unused scalar. routedEnd.send presizes with
// it; an estimate that fell short would cost a second allocation, not a
// wrong frame (TestRoutedSendAllocGate).
const frameOverhead = 64

// sendFrame transmits f over c at f.sentAt. wire.Marshal encodes into
// pooled scratch and clones the result, so what vnet takes is the
// frame's own exactly sized slice.
func sendFrame(c *vnet.Conn, f *frame) error {
	_, err := c.Send(wire.Marshal(f), f.sentAt)
	return err
}

// decodeFrame decodes one received message; the frame's sentAt is its
// virtual arrival time so handlers can re-stamp relayed copies. Payload
// aliases the message.
func decodeFrame(msg vnet.Message) (*frame, error) {
	f := new(frame)
	if err := wire.Unmarshal(msg.Data, f); err != nil {
		return nil, err
	}
	f.sentAt = msg.Arrival
	return f, nil
}

// recvFrame receives and decodes one frame.
func recvFrame(c *vnet.Conn) (*frame, error) {
	msg, err := c.Recv()
	if err != nil {
		return nil, err
	}
	return decodeFrame(msg)
}

// circuitOf reads the two leading fields of an encoded frame: its kind
// and, aliasing data, its circuit key. ok is false on a malformed head.
func circuitOf(data []byte) (kind byte, circuit []byte, ok bool) {
	r := wire.Reader{B: data}
	kind, circuit = r.U8("kind"), r.Bytes("circuit")
	return kind, circuit, r.Err == nil
}
