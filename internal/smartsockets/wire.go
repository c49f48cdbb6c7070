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

	// Hub protocol (hello/gossip): the sender and every advert it holds.
	Hub     string
	Adverts []advert

	// Src is the client registering, or the dialing end of a circuit open
	// or reverse request; Dst the end being dialed.
	Src, Dst Address
	// Route is the whole hub path the source hub chose for an open or
	// reverse request (Hub.route), and Hop how many of its hubs the frame
	// has crossed: each forwards to Route[Hop]. Acks and naks carry the
	// same Route back with Hop counting down, so the dialer learns which
	// hubs relay its traffic (Fig. 10's routed lines).
	Route []string
	Hop   int

	// Reverse connection setup.
	ReqID     uint64
	ReplyPort int

	// Reason says why a kCircuitNak refused (nak* below).
	Reason byte

	// sentAt is the virtual clock of the sender when the frame is emitted
	// and, on a received frame, its virtual arrival time; relays re-stamp
	// with arrival plus processing delay. It is the send time handed to
	// vnet, not a wire field (the codec skips unexported fields).
	sentAt time.Duration
}

// advert is one hub's link state: the hub neighbours it holds a connection
// to, with the modelled latency of each link. Seq rises with every change;
// hubs keep the newest advert received of every hub.
type advert struct {
	Hub   string
	Seq   uint64
	Links []link
}

type link struct {
	Peer    string
	Latency time.Duration
}

const (
	kHello        byte = iota // hub -> hub: identify + adverts held; answered by a kGossip
	kGossip                   // hub -> hub: adverts held
	kRegister                 // client -> hub: claim Src (at this hub: Src.Hub stays empty)
	kUnregister               // client -> hub: release Src
	kReverseReq               // along Route: ask Dst to dial back Src.Host:ReplyPort
	kCircuitOpen              // along Route: open a routed circuit to Dst
	kCircuitAck               // backtracks Route: circuit established
	kCircuitNak               // backtracks Route: refused, see Reason
	kCircuitData              // follows circuit table
	kCircuitClose             // follows circuit table, dismantling it
	kDialbackOK               // first frame on a reverse dial-back conn
	kRegisterAck              // hub -> client: Src registration stored
)

// Reasons of a kCircuitNak.
const (
	nakNoListener byte = iota // Dst's hub serves no such address, or nothing listens on it
	nakNoRoute                // the source hub knows no hub path to Dst.Hub
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

// testDecoded, when a test set it (before the hubs it watches started),
// sees every frame decoded: the package keeps no count of its own.
var testDecoded func(*frame)

// decodeFrame decodes one received message; the frame's sentAt is its
// virtual arrival time so handlers can re-stamp relayed copies. Payload
// aliases the message.
func decodeFrame(msg vnet.Message) (*frame, error) {
	f := new(frame)
	if err := wire.Unmarshal(msg.Data, f); err != nil {
		return nil, err
	}
	f.sentAt = msg.Arrival
	if testDecoded != nil {
		testDecoded(f)
	}
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
