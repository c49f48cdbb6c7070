package sched

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"time"

	"jungle/internal/core"
	"jungle/internal/core/kernel"
)

// The gateway wire protocol: the daemon channel's length-prefixed framing
// (4-byte little-endian length + payload) carrying envelopes in the wire
// codec (kernel.Encode). Every frame gets one reply frame: a frame that
// does not decode is answered kernel.ErrBadMethod, and one whose method is
// not a session_ op kernel.ErrNoSuchMethod.

// Envelope is one client request frame.
type Envelope struct {
	Method string // core.MethodSession*
	Body   []byte // kernel.Encode of the args struct
}

// ReplyFrame is one gateway response frame. Code is the wire-error
// taxonomy byte (0 = success); CodeBusy replies carry a core.SessionBusy
// in Body.
type ReplyFrame struct {
	Code byte
	Err  string
	Body []byte
}

// Gateway serves control-plane connections for a scheduler. Every
// accepted connection is handled concurrently and is bound to the session
// namespace it attaches: after session_attach, the connection's
// operations address that session and no other.
type Gateway struct {
	Sched *Scheduler
	// Ctx bounds the work the gateway performs on behalf of clients
	// (default context.Background()).
	Ctx context.Context
}

func (g *Gateway) ctx() context.Context {
	if g.Ctx != nil {
		return g.Ctx
	}
	return context.Background()
}

// Serve accepts connections until the listener closes.
func (g *Gateway) Serve(l net.Listener) error {
	for {
		conn, err := l.Accept()
		if err != nil {
			return err
		}
		go func() {
			defer conn.Close()
			g.ServeConn(conn)
		}()
	}
}

// ServeConn serves one client connection until EOF. Safe to call from
// many goroutines with distinct connections.
func (g *Gateway) ServeConn(conn io.ReadWriter) error {
	r := bufio.NewReaderSize(conn, 1<<20)
	w := bufio.NewWriterSize(conn, 1<<20)
	bound := "" // session this connection attached
	for {
		payload, err := readFrame(r)
		if errors.Is(err, io.EOF) {
			return nil
		}
		if err != nil {
			return err
		}
		start := time.Now()
		var env Envelope
		var reply ReplyFrame
		if err := kernel.Decode(payload, &env); err != nil {
			reply = errReply(fmt.Errorf("%w: undecodable envelope: %v", kernel.ErrBadMethod, err))
		} else {
			reply = g.dispatch(&bound, env)
		}
		// Control ops run on the wall clock (the gateway fronts a real
		// listener), so their latency histograms are wall time — model
		// "control" keeps them apart from the virtual-time call rows.
		if rec := g.Sched.Recorder(); rec != nil {
			if reply.Code != 0 {
				rec.RecordCallError(bound, "control", env.Method)
			} else {
				rec.RecordCall(bound, "control", env.Method, time.Since(start), 0)
			}
		}
		if err := writeFrame(w, kernel.Encode(reply)); err != nil {
			return err
		}
	}
}

// readFrame reads one frame writeFrame wrote. The body grows as its bytes
// arrive, so a forged length fails at the end of the stream before it sizes
// an allocation — the rule wire.Reader's lengths keep. A stream that ends
// at a frame boundary reads io.EOF, one that ends inside a frame
// io.ErrUnexpectedEOF.
func readFrame(r io.Reader) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := int64(binary.LittleEndian.Uint32(hdr[:]))
	body, err := io.ReadAll(io.LimitReader(r, n))
	if err == nil && int64(len(body)) < n {
		err = io.ErrUnexpectedEOF
	}
	return body, err
}

func writeFrame(w *bufio.Writer, payload []byte) error {
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], uint32(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	if _, err := w.Write(payload); err != nil {
		return err
	}
	return w.Flush()
}

// dispatch executes one control-plane op for a connection bound (or
// binding) to a session.
func (g *Gateway) dispatch(bound *string, env Envelope) ReplyFrame {
	switch env.Method {
	case core.MethodSessionAttach:
		var args core.SessionAttachArgs
		if err := kernel.Decode(env.Body, &args); err != nil {
			return errReply(fmt.Errorf("%w: bad attach args: %v", kernel.ErrBadMethod, err))
		}
		sess, resumed, err := g.Sched.Attach(g.ctx(), args.Session, args.Wait)
		if err != nil {
			return errReply(err)
		}
		*bound = sess.ID()
		return okReply(core.SessionAttachReply{
			Session: sess.ID(), State: string(sess.State()), Resumed: resumed,
		})
	case core.MethodSessionHeartbeat:
		var args core.SessionHeartbeatArgs
		if err := kernel.Decode(env.Body, &args); err != nil {
			return errReply(fmt.Errorf("%w: bad heartbeat args: %v", kernel.ErrBadMethod, err))
		}
		id, err := g.sessionFor(*bound, args.Session)
		if err != nil {
			return errReply(err)
		}
		st, err := g.Sched.Heartbeat(id)
		if err != nil {
			return errReply(err)
		}
		return okReply(core.SessionHeartbeatReply{State: string(st)})
	case core.MethodSessionRun:
		var args core.SessionRunArgs
		if err := kernel.Decode(env.Body, &args); err != nil {
			return errReply(fmt.Errorf("%w: bad run args: %v", kernel.ErrBadMethod, err))
		}
		id, err := g.sessionFor(*bound, args.Session)
		if err != nil {
			return errReply(err)
		}
		out, err := g.Sched.Run(g.ctx(), id, args.Payload)
		if err != nil {
			return errReply(err)
		}
		return okReply(core.SessionRunReply{Payload: out})
	case core.MethodSessionStatus:
		var args core.SessionStatusArgs
		if err := kernel.Decode(env.Body, &args); err != nil {
			return errReply(fmt.Errorf("%w: bad status args: %v", kernel.ErrBadMethod, err))
		}
		id, err := g.sessionFor(*bound, args.Session)
		if err != nil {
			return errReply(err)
		}
		st, err := g.Sched.Status(id)
		if err != nil {
			return errReply(err)
		}
		return okReply(st)
	case core.MethodSessionDetach:
		var args core.SessionDetachArgs
		if err := kernel.Decode(env.Body, &args); err != nil {
			return errReply(fmt.Errorf("%w: bad detach args: %v", kernel.ErrBadMethod, err))
		}
		id, err := g.sessionFor(*bound, args.Session)
		if err != nil {
			return errReply(err)
		}
		st := StatePreempted
		if args.Close {
			if err := g.Sched.Close(id); err != nil {
				return errReply(err)
			}
			st = StateClosed
		} else if sess, err := g.Sched.Session(id); err == nil {
			st = sess.State()
		}
		*bound = ""
		return okReply(core.SessionDetachReply{State: string(st)})
	default:
		return errReply(fmt.Errorf("%w: %q", kernel.ErrNoSuchMethod, env.Method))
	}
}

// sessionFor resolves the session an op addresses: the connection's bound
// session by default; an explicit id must match the binding — one
// connection, one session namespace.
func (g *Gateway) sessionFor(bound, explicit string) (string, error) {
	switch {
	case explicit == "" && bound == "":
		return "", errors.New("sched: connection not attached to a session")
	case explicit == "":
		return bound, nil
	case bound != "" && explicit != bound:
		return "", fmt.Errorf("sched: connection is bound to session %q, not %q", bound, explicit)
	default:
		return explicit, nil
	}
}

// okReply encodes a success reply body.
func okReply(body any) ReplyFrame { return ReplyFrame{Body: kernel.Encode(body)} }

// errReply classifies an error through the wire taxonomy. BusyErrors
// carry their structured retry-after hint as a SessionBusy payload.
func errReply(err error) ReplyFrame {
	code := kernel.ClassifyErr(err)
	rf := ReplyFrame{Code: byte(code), Err: err.Error()}
	var be *BusyError
	if errors.As(err, &be) {
		rf.Body = kernel.Encode(core.SessionBusy{
			RetryAfterMs: be.RetryAfter.Milliseconds(), Queued: be.Queued,
		})
	}
	return rf
}
