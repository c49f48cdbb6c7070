package kernel

import (
	"errors"
	"fmt"
	"slices"
	"time"

	"jungle/internal/wire"
)

// Request is one RPC over any channel.
type Request struct {
	ID uint64
	// Worker routes the request at the daemon (ibis channel only).
	Worker int
	Method string
	Args   []byte
	// SentAt is the caller's virtual clock at send time.
	SentAt time.Duration
}

// Response answers one Request.
type Response struct {
	ID     uint64
	Result []byte
	// Code classifies the outcome (CodeOK for success). It is the
	// machine-readable half of the error: the coupler maps it back to a
	// sentinel error with errors.Is semantics via ResponseError.
	Code Code
	// Err is the human-readable half: the originating error's message.
	Err string
	// DoneAt is the worker's virtual clock when the call finished
	// (arrival + compute); the reply's network arrival is added on top by
	// the transport.
	DoneAt time.Duration
}

// Code is the structured wire error class carried by every Response. It
// survives the hand-rolled codec as a single byte, unlike the Go error
// values it stands for.
type Code uint8

// Wire error codes.
const (
	CodeOK          Code = iota // success
	CodeBadMethod               // no such method on the worker kind
	CodeBadKind                 // no service registered for the kind
	CodeWorkerFault             // the model call itself failed (worker alive)
	CodeWorkerDied              // worker process/job/host is gone
	CodeTransport               // channel or daemon failure en route
	CodeBusy                    // admission control: no capacity, retry after backoff
)

// Sentinel returns the taxonomy sentinel a code unwraps to (nil for
// CodeOK; unknown codes map to ErrTransport — a frame we cannot
// interpret is a transport problem by definition).
func (c Code) Sentinel() error {
	switch c {
	case CodeOK:
		return nil
	case CodeBadMethod:
		return ErrBadMethod
	case CodeBadKind:
		return ErrBadKind
	case CodeWorkerFault:
		return ErrWorkerFault
	case CodeWorkerDied:
		return ErrWorkerDied
	case CodeBusy:
		return ErrBusy
	default:
		return ErrTransport
	}
}

// ClassifyErr maps a worker-side dispatch error to its wire code. It is
// the encode half of the taxonomy: serveConn, the local channel and the
// daemon run every error through it before framing a Response.
func ClassifyErr(err error) Code {
	switch {
	case err == nil:
		return CodeOK
	case errors.Is(err, ErrNoSuchMethod):
		return CodeBadMethod
	case errors.Is(err, ErrBadKind):
		return CodeBadKind
	case errors.Is(err, ErrWorkerDied):
		return CodeWorkerDied
	case errors.Is(err, ErrBusy):
		return CodeBusy
	case errors.Is(err, ErrTransport):
		return CodeTransport
	default:
		return CodeWorkerFault
	}
}

// WireError is a decoded wire failure: the code plus the originating
// message. It unwraps to the code's sentinel, so
// errors.Is(err, kernel.ErrBadMethod) (etc.) holds on the coupler side
// of any channel.
type WireError struct {
	Code Code
	Msg  string
}

func (e *WireError) Error() string {
	if e.Msg != "" {
		return e.Msg
	}
	return e.Code.Sentinel().Error()
}

func (e *WireError) Unwrap() error { return e.Code.Sentinel() }

// ResponseError converts a decoded Response into the coupler-side error
// (nil on CodeOK).
func ResponseError(resp *Response) error {
	if resp.Code == CodeOK {
		return nil
	}
	return &WireError{Code: resp.Code, Msg: resp.Err}
}

// Wire framing: fixed little-endian layouts over internal/wire's append
// helpers and Reader. Every RPC on the sockets and ibis channels (and
// through the daemon proxy) crosses this codec twice, so it avoids
// per-call encoder allocation entirely: every Append* sizes dst for the
// whole frame first, so appending to nil costs the one allocation the
// transport then owns; relays forward that slice untouched, and
// unmarshalling aliases sub-slices of the received frame.
const (
	tagRequest     = 0x52 // 'R'
	tagResponse    = 0x50 // 'P'
	tagState       = 0x53 // 'S'
	tagStateReq    = 0x51 // 'Q'
	tagTransfer    = 0x54 // 'T' — worker-to-worker state stream (transfer.go)
	tagTransferAck = 0x41 // 'A' — stream receipt acknowledgement
	tagStaged      = 0x47 // 'G' — slot-tagged staged state application
	tagGangHello   = 0x48 // 'H' — gang link handshake (gang.go)
	tagSnapshot    = 0x4B // 'K' — worker checkpoint snapshot (checkpoint.go)
)

// FrameTag returns the leading tag byte of a wire frame (0 for an empty
// frame). Peer listeners use it to route an inbound connection's first
// frame: transfer streams, aborts and gang hellos all arrive on the same
// listener.
func FrameTag(b []byte) byte {
	if len(b) == 0 {
		return 0
	}
	return b[0]
}

// IsGangHello reports whether a frame is a gang link handshake.
func IsGangHello(b []byte) bool { return FrameTag(b) == tagGangHello }

// AppendRequest marshals req into dst and returns the extended slice.
func AppendRequest(dst []byte, req *Request) []byte {
	dst = slices.Grow(dst, 1+8+8+8+2+len(req.Method)+4+len(req.Args))
	dst = append(dst, tagRequest)
	dst = wire.AppendU64(dst, req.ID)
	dst = wire.AppendU64(dst, uint64(req.Worker))
	dst = wire.AppendU64(dst, uint64(req.SentAt))
	dst = wire.AppendString16(dst, req.Method)
	return wire.AppendBytes32(dst, req.Args)
}

// UnmarshalRequest parses a frame produced by AppendRequest. req.Args
// aliases b.
func UnmarshalRequest(b []byte, req *Request) error {
	r := wire.Reader{B: b}
	if tag := r.U8("tag"); r.Err == nil && tag != tagRequest {
		return fmt.Errorf("kernel: not a request frame (tag 0x%02x)", tag)
	}
	req.ID = r.U64("id")
	req.Worker = int(r.U64("worker"))
	req.SentAt = time.Duration(r.U64("sentAt"))
	req.Method = r.String16("method")
	req.Args = r.Bytes32("args")
	return r.Err
}

// AppendResponse marshals resp into dst and returns the extended slice.
func AppendResponse(dst []byte, resp *Response) []byte {
	dst = slices.Grow(dst, 1+8+1+8+2+len(resp.Err)+4+len(resp.Result))
	dst = append(dst, tagResponse)
	dst = wire.AppendU64(dst, resp.ID)
	dst = append(dst, byte(resp.Code))
	dst = wire.AppendU64(dst, uint64(resp.DoneAt))
	dst = wire.AppendString16(dst, resp.Err)
	return wire.AppendBytes32(dst, resp.Result)
}

// UnmarshalResponse parses a frame produced by AppendResponse. resp.Result
// aliases b.
func UnmarshalResponse(b []byte, resp *Response) error {
	r := wire.Reader{B: b}
	if tag := r.U8("tag"); r.Err == nil && tag != tagResponse {
		return fmt.Errorf("kernel: not a response frame (tag 0x%02x)", tag)
	}
	resp.ID = r.U64("id")
	resp.Code = Code(r.U8("code"))
	resp.DoneAt = time.Duration(r.U64("doneAt"))
	resp.Err = r.String16("err")
	resp.Result = r.Bytes32("result")
	return r.Err
}
