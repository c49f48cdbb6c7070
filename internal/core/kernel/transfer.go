package kernel

import (
	"fmt"

	"jungle/internal/wire"
)

// Third-party state transfer: the coupler orchestrates by RPC, the column
// bytes flow worker-to-worker over a SmartSockets virtual connection — the
// Fig. 5 topology minus the hairpin through the user's machine. Two proxy
// ops and two stream frames make up the protocol:
//
//   - "offer_state" (coupler -> source worker): read the named columns and
//     stream them to the peer address as one transfer frame; wait for the
//     peer's ack.
//   - "accept_state" (coupler -> destination worker): wait for the transfer
//     frame with the given id to arrive on the peer listener and apply it
//     with the named method ("set_state", or a staging method).
//
// Both ops are handled by the worker's proxy (which owns the SmartSockets
// factory), not the model service; the service only ever sees its ordinary
// get_state/set_state/stage_* dispatch. The stream payload is the columnar
// StatePayload frame unchanged, so the transfer codec adds a fixed-size
// header, never a re-encode — and the offering proxy writes that header
// over the one its service's answer arrived behind (TransferFromResponse),
// never a copy either.

// Proxy-level transfer methods.
const (
	MethodOfferState  = "offer_state"
	MethodAcceptState = "accept_state"
)

// MethodApplyState is the default apply method for accepted transfers.
const MethodApplyState = "set_state"

// OfferStateArgs asks a worker to stream state columns to a peer.
type OfferStateArgs struct {
	// ID names the transfer; the accepting peer matches streams by it.
	ID uint64
	// Attrs selects the columns (get_state semantics).
	Attrs []string
	// Peer is the destination worker's peer-listener address
	// ("host:port" in the SmartSockets address space).
	Peer string
}

// AcceptStateArgs asks a worker to wait for a transfer stream and apply it.
type AcceptStateArgs struct {
	// ID names the expected transfer.
	ID uint64
	// Apply is the worker method the payload is applied with; empty means
	// MethodApplyState. Staging methods (Slot != 0) receive the payload
	// behind its slot tag (NewApplyRequest).
	Apply string
	// Slot tags staged applications (stage_sources/stage_targets) so
	// several staged exchanges can be in flight on one worker.
	Slot uint64
}

// Transfer stream framing (worker-to-worker peer connections).

// transferHeader is the size of a transfer frame's header: tag, id, the
// abort flag and the payload's length.
const transferHeader = 1 + 8 + 1 + 4

// TransferFromResponse turns a response frame into the transfer frame that
// streams its result — resultLen bytes, the frame's tail — under id,
// without moving them: the transfer header is shorter than any response
// header, so it is written over the end of that one, directly in front of
// the result. The caller must own frame (a proxy owns its service's loopback
// reply: it was sent to it alone) and have parsed it (UnmarshalResponse).
func TransferFromResponse(frame []byte, resultLen int, id uint64) []byte {
	start := len(frame) - resultLen - transferHeader
	head := append(frame[start:start], tagTransfer)
	head = append(wire.AppendU64(head, id), 0) // data, not abort
	wire.AppendU32(head, uint32(resultLen))
	return frame[start:]
}

// AppendTransferAbort frames an abort marker for a transfer id: the peer
// stops waiting and fails the matching accept_state with a transport error
// (sent by the coupler's daemon when the offering side failed, so the
// accepting worker does not wait out its timeout).
func AppendTransferAbort(dst []byte, id uint64) []byte {
	dst = append(dst, tagTransfer)
	dst = wire.AppendU64(dst, id)
	dst = append(dst, 1) // abort
	return wire.AppendU32(dst, 0)
}

// UnmarshalTransfer parses a frame produced by TransferFromResponse or
// AppendTransferAbort. state aliases b.
func UnmarshalTransfer(b []byte) (id uint64, state []byte, abort bool, err error) {
	r := wire.Reader{B: b}
	if tag := r.U8("tag"); r.Err == nil && tag != tagTransfer {
		return 0, nil, false, fmt.Errorf("kernel: not a transfer frame (tag 0x%02x)", tag)
	}
	id = r.U64("id")
	abort = r.U8("abort") == 1
	state = r.Bytes32("state")
	return id, state, abort, r.Err
}

// AppendTransferAck frames the receiving peer's acknowledgement.
func AppendTransferAck(dst []byte, id uint64) []byte {
	dst = append(dst, tagTransferAck)
	return wire.AppendU64(dst, id)
}

// UnmarshalTransferAck parses a frame produced by AppendTransferAck.
func UnmarshalTransferAck(b []byte) (uint64, error) {
	r := wire.Reader{B: b}
	if tag := r.U8("tag"); r.Err == nil && tag != tagTransferAck {
		return 0, fmt.Errorf("kernel: not a transfer ack frame (tag 0x%02x)", tag)
	}
	id := r.U64("id")
	return id, r.Err
}

// Gang link handshake (worker-to-worker peer connections). Lower ranks
// dial: rank i opens one peer connection to every rank j > i and sends a
// hello frame naming the gang and its own rank; the accepting side parks
// the connection in its gang mailbox until gang_init claims it. After the handshake the
// connection is a persistent bidirectional rank link carrying halo
// frames (columnar StatePayload blobs) for the whole gang lifetime.

// AppendGangHello frames a gang link handshake.
func AppendGangHello(dst []byte, gangID uint64, fromRank int) []byte {
	dst = append(dst, tagGangHello)
	dst = wire.AppendU64(dst, gangID)
	return wire.AppendU32(dst, uint32(fromRank))
}

// UnmarshalGangHello parses a frame produced by AppendGangHello.
func UnmarshalGangHello(b []byte) (gangID uint64, fromRank int, err error) {
	r := wire.Reader{B: b}
	if tag := r.U8("tag"); r.Err == nil && tag != tagGangHello {
		return 0, 0, fmt.Errorf("kernel: not a gang hello frame (tag 0x%02x)", tag)
	}
	gangID = r.U64("gang id")
	fromRank = int(r.U32("from rank"))
	return gangID, fromRank, r.Err
}

// stagedHeader is the size of the slot tag NewApplyRequest wraps a staged
// state frame with: tag, slot and the state's length.
const stagedHeader = 1 + 8 + 4

// UnmarshalStaged parses the args of a staging NewApplyRequest. state
// aliases b.
func UnmarshalStaged(b []byte) (slot uint64, state []byte, err error) {
	r := wire.Reader{B: b}
	if tag := r.U8("tag"); r.Err == nil && tag != tagStaged {
		return 0, nil, fmt.Errorf("kernel: not a staged frame (tag 0x%02x)", tag)
	}
	slot = r.U64("slot")
	state = r.Bytes32("state")
	return slot, state, r.Err
}
