package kernel

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"jungle/internal/wire"
)

// The free list of frame-sized buffers (DESIGN.md § Buffer ownership, "Bulk
// frames are recycled"). A state frame is taken from it where it is built —
// a get_state reply (newReply), a request that owns its frame (ownFrame) —
// and handed back with ReleaseFrame by its one documented last reader: the
// coupler once it has decoded a get_state reply or its set_state call has
// succeeded, and the accepting proxy once its loopback apply has returned.
// A frame nobody hands back is garbage like any other slice. The list is a
// sync.Pool, so it holds nothing across two collections.
//
// frameClass is the smallest buffer the list keeps (smaller ones are
// allocated exactly, as everywhere else) and the size class larger ones
// round up to, so a buffer that carried a reply can carry the request for
// the same columns.
const frameClass = 64 << 10

var (
	frames sync.Pool // *[]byte: a released buffer of at least frameClass bytes
	// boxes are the emptied *[]byte frames handed out, reused so that a
	// release allocates nothing.
	boxes  sync.Pool
	poison atomic.Bool // PoisonReleased
)

// takeFrame returns an empty buffer with room for n bytes: a released one
// when n is frame-sized and the list has one that large, else a fresh one —
// exactly sized below frameClass, rounded up to a multiple of it above.
func takeFrame(n int) []byte {
	if n < frameClass {
		return make([]byte, 0, n)
	}
	if box, _ := frames.Get().(*[]byte); box != nil {
		b := *box
		*box = nil
		boxes.Put(box)
		if cap(b) >= n {
			return b[:0]
		}
	}
	return make([]byte, 0, (n+frameClass-1)/frameClass*frameClass)
}

// ReleaseFrame hands a frame back to the free list. Only the frame's last
// reader may call it, and only with the whole frame as it was built or
// received — never a view into one: whatever still aliases it sees the next
// frame's bytes.
func ReleaseFrame(b []byte) {
	if poison.Load() {
		b = b[:cap(b)]
		for i := range b {
			b[i] = 0xA5
		}
	}
	if cap(b) < frameClass {
		return
	}
	box, _ := boxes.Get().(*[]byte)
	if box == nil {
		box = new([]byte)
	}
	*box = b[:0]
	frames.Put(box)
}

// PoisonReleased switches the use-after-release check on or off: while it is
// on, ReleaseFrame overwrites every frame it is handed with 0xA5 before the
// list can give it out again, so a reader that kept one reads garbage. A test
// hook; a run never sets it.
func PoisonReleased(on bool) { poison.Store(on) }

// Request is one RPC over any channel.
type Request struct {
	ID uint64
	// Worker routes the request at the daemon (ibis channel only).
	Worker int
	Method string
	Args   []byte
	// SentAt is the caller's virtual clock at send time.
	SentAt time.Duration

	// frame, when set, is the request's own frame: the header's room and
	// behind it Args, which alias it (EncodeRequest, NewStateRequest,
	// NewApplyRequest).
	frame []byte
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

	// frame is the buffer Result aliases, as it arrived (UnmarshalResponse)
	// or as the dispatch returned it (LocalResponse): what its last reader
	// hands back (Frame, ReleaseFrame).
	frame []byte
}

// Frame returns the buffer the response arrived in, for its last reader to
// hand back with ReleaseFrame once it has decoded Result.
func (r *Response) Frame() []byte { return r.frame }

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
// message. It unwraps to the code's sentinel, so errors.Is(err,
// kernel.ErrBadMethod) (etc.) holds on the coupler side of any channel.
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

// Unwrap is an interface method: errors.Is reaches it, nothing names it.
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

// requestHeader is the size of a request's header in front of its args.
func requestHeader(method string) int { return 1 + 8 + 8 + 8 + 2 + len(method) + 4 }

// appendRequestHeader appends the header of a request with n bytes of args.
func appendRequestHeader(dst []byte, id uint64, worker int, sentAt time.Duration, method string, n int) []byte {
	dst = append(dst, tagRequest)
	dst = wire.AppendU64(dst, id)
	dst = wire.AppendU64(dst, uint64(worker))
	dst = wire.AppendU64(dst, uint64(sentAt))
	dst = wire.AppendString16(dst, method)
	return wire.AppendU32(dst, uint32(n))
}

// AppendRequest marshals req into dst and returns the extended slice.
func AppendRequest(dst []byte, req *Request) []byte {
	dst = slices.Grow(dst, requestHeader(req.Method)+len(req.Args))
	dst = appendRequestHeader(dst, req.ID, req.Worker, req.SentAt, req.Method, len(req.Args))
	return append(dst, req.Args...)
}

// ownFrame returns the frame a request for method owns, for n bytes of args
// the caller appends: the header is in place but for ID, Worker and SentAt,
// which Frame fills in when the request leaves.
func ownFrame(method string, n int) []byte {
	return appendRequestHeader(takeFrame(requestHeader(method)+n), 0, 0, 0, method, n)
}

// framed is the request for method whose args are already in frame, behind
// the header.
func framed(method string, frame []byte) Request {
	return Request{Method: method, Args: frame[requestHeader(method):], frame: frame}
}

// EncodeRequest returns the request that calls method with v — a payload
// struct, see Encode — as its args, encoded straight behind the request
// header.
func EncodeRequest(method string, v any) Request {
	hdr := requestHeader(method)
	frame := wire.MarshalBehind(hdr, v)
	appendRequestHeader(frame[:0], 0, 0, 0, method, len(frame)-hdr)
	return framed(method, frame)
}

// NewStateRequest returns the request that applies st with method, encoded
// once: the columns are marshalled straight behind the request header, into
// the frame that leaves.
func NewStateRequest(method string, st *StatePayload) (Request, error) {
	frame, err := AppendState(ownFrame(method, stateSize(st)), st)
	return framed(method, frame), err
}

// NewApplyRequest returns the request that applies an encoded state frame
// with method: the state copied once into the request's own frame — behind
// its slot tag with a staging slot (the stage_* methods: field workers hold
// several staged inputs at once), as it is without one.
func NewApplyRequest(method string, slot uint64, state []byte) Request {
	if slot == 0 {
		return framed(method, append(ownFrame(method, len(state)), state...))
	}
	frame := wire.AppendU64(append(ownFrame(method, stagedHeader+len(state)), tagStaged), slot)
	return framed(method, wire.AppendBytes32(frame, state))
}

// Frame returns the request's wire frame for the transport to take. A
// request that owns its frame completes the header in place and hands that
// frame over — once: whoever keeps the request after that keeps its Method
// and Args (which still alias the frame, to be read only), not the frame.
// Any other request is marshalled into a frame of its own.
func (r *Request) Frame() []byte {
	if r.frame == nil {
		return AppendRequest(nil, r)
	}
	// The three fields ownFrame left zero, at their fixed places behind the tag.
	binary.LittleEndian.PutUint64(r.frame[1:], r.ID)
	binary.LittleEndian.PutUint64(r.frame[9:], uint64(r.Worker))
	binary.LittleEndian.PutUint64(r.frame[17:], uint64(r.SentAt))
	return r.frame
}

// Unframed returns r without a frame of its own: Args still alias the one it
// had, to be read only, and Frame copies them into a fresh one — what all
// but one receiver of a fan-out get.
func (r Request) Unframed() Request {
	r.frame = nil
	return r
}

// OwnFrame returns the frame the request was built in (nil if it has none):
// what the frame's last reader hands back with ReleaseFrame once the call it
// left with has been served.
func (r *Request) OwnFrame() []byte { return r.frame }

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
	req.frame = nil
	return r.Err
}

// respHeader is the size of a successful response's header — tag, id, code,
// doneAt, an empty Err and the result's length: the room a Reply keeps in
// front of its bytes.
const respHeader = 1 + 8 + 1 + 8 + 2 + 4

// Reply is what Service.Dispatch returns: the encoded result behind room
// for the response header, so that whoever frames the response fills the
// header in (FrameResponse) instead of copying the result behind a new one.
// A kind builds one with EncodeReply or StateReply, fresh for every call and
// without keeping a reference: the frame is its receiver's alone, to re-head
// and send on. The zero Reply is the empty result, what a failed dispatch
// returns.
type Reply struct {
	frame []byte // respHeader bytes of room, then the encoding
}

// newReply returns an empty result with capacity for size bytes, appended
// to its frame — taken from the free list when it is frame-sized.
func newReply(size int) []byte { return takeFrame(respHeader + size)[:respHeader] }

// EncodeReply is Encode for a dispatch result.
func EncodeReply(v any) Reply { return Reply{wire.MarshalBehind(respHeader, v)} }

// Bytes returns the encoded result.
func (r Reply) Bytes() []byte {
	if r.frame == nil {
		return nil
	}
	return r.frame[respHeader:]
}

// appendResponseHeader appends the header of a response with an n-byte
// result.
func appendResponseHeader(dst []byte, id uint64, code Code, doneAt time.Duration, errStr string, n int) []byte {
	dst = append(dst, tagResponse)
	dst = wire.AppendU64(dst, id)
	dst = append(dst, byte(code))
	dst = wire.AppendU64(dst, uint64(doneAt))
	dst = wire.AppendString16(dst, errStr)
	return wire.AppendU32(dst, uint32(n))
}

// FrameResponse frames the outcome of a dispatch as the response to request
// id. A success is res itself with its header filled in — no byte of the
// result moves; a failure is framed afresh around its code and message.
func FrameResponse(id uint64, res Reply, doneAt time.Duration, err error) []byte {
	if err == nil && res.frame != nil {
		appendResponseHeader(res.frame[:0], id, CodeOK, doneAt, "", len(res.frame)-respHeader)
		return res.frame
	}
	resp := LocalResponse(id, res, doneAt, err)
	return AppendResponse(nil, &resp)
}

// LocalResponse is the outcome of an in-process dispatch as the response to
// request id, unframed: Result is res's bytes, and res's frame travels along
// for the response's last reader to hand back (Frame).
func LocalResponse(id uint64, res Reply, doneAt time.Duration, err error) Response {
	resp := Response{ID: id, Result: res.Bytes(), DoneAt: doneAt, frame: res.frame}
	if err != nil {
		resp.Code, resp.Err = ClassifyErr(err), err.Error()
	}
	return resp
}

// AppendResponse marshals resp into dst and returns the extended slice.
func AppendResponse(dst []byte, resp *Response) []byte {
	dst = slices.Grow(dst, respHeader+len(resp.Err)+len(resp.Result))
	dst = appendResponseHeader(dst, resp.ID, resp.Code, resp.DoneAt, resp.Err, len(resp.Result))
	return append(dst, resp.Result...)
}

// UnmarshalResponse parses a frame produced by AppendResponse. resp.Result
// aliases b, and b is the response's Frame.
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
	resp.frame = b
	return r.Err
}
