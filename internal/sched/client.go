package sched

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"time"

	"jungle/internal/core"
	"jungle/internal/core/kernel"
)

// Client is the thin control-plane client (amuse-run -attach): it speaks
// the gateway's framed envelope protocol over any stream. A client is
// bound to at most one session at a time (the gateway enforces the same
// binding on its side of the connection). Not safe for concurrent use.
type Client struct {
	conn    io.ReadWriteCloser
	r       *bufio.Reader
	w       *bufio.Writer
	session string
}

// Dial connects to a jungled gateway address (host:port TCP).
func Dial(addr string) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("sched: dial %s: %w", addr, err)
	}
	return NewClient(conn), nil
}

// NewClient wraps an established connection (tests pass an in-memory
// pipe).
func NewClient(conn io.ReadWriteCloser) *Client {
	return &Client{
		conn: conn,
		r:    bufio.NewReaderSize(conn, 1<<20),
		w:    bufio.NewWriterSize(conn, 1<<20),
	}
}

// Close closes the underlying connection.
func (c *Client) Close() error { return c.conn.Close() }

// do performs one request/response round trip.
func (c *Client) do(method string, args, reply any) error {
	out := kernel.Encode(Envelope{Method: method, Body: kernel.Encode(args)})
	if err := writeFrame(c.w, out); err != nil {
		return fmt.Errorf("sched: send %s: %w", method, err)
	}
	payload, err := readFrame(c.r)
	if err != nil {
		return fmt.Errorf("sched: %s reply: %w", method, err)
	}
	var rf ReplyFrame
	if err := kernel.Decode(payload, &rf); err != nil {
		return fmt.Errorf("sched: decode %s reply: %w", method, err)
	}
	if rf.Code != 0 {
		return c.replyErr(method, rf)
	}
	if reply != nil {
		if err := kernel.Decode(rf.Body, reply); err != nil {
			return fmt.Errorf("sched: decode %s result: %w", method, err)
		}
	}
	return nil
}

// replyErr rebuilds a client-side error from a failure frame: busy
// rejections come back as *BusyError with the structured hint, everything
// else as the taxonomy sentinel wrapped with the server's message.
func (c *Client) replyErr(method string, rf ReplyFrame) error {
	code := kernel.Code(rf.Code)
	if code == kernel.CodeBusy {
		var busy core.SessionBusy
		if err := kernel.Decode(rf.Body, &busy); err == nil {
			return &BusyError{
				RetryAfter: time.Duration(busy.RetryAfterMs) * time.Millisecond,
				Queued:     busy.Queued,
			}
		}
	}
	return fmt.Errorf("sched: %s: %s: %w", method, rf.Err, code.Sentinel())
}

// Attach admits (or re-attaches to) a session. wait parks in the
// admission queue when the plane is full; otherwise a full plane returns
// a *BusyError carrying the retry-after hint.
func (c *Client) Attach(session string, wait bool) (core.SessionAttachReply, error) {
	var rep core.SessionAttachReply
	err := c.do(core.MethodSessionAttach, core.SessionAttachArgs{Session: session, Wait: wait}, &rep)
	if err == nil {
		c.session = rep.Session
	}
	return rep, err
}

// Run submits one opaque unit of work to the attached session and returns
// the handler's result.
func (c *Client) Run(payload []byte) ([]byte, error) {
	var rep core.SessionRunReply
	err := c.do(core.MethodSessionRun, core.SessionRunArgs{Session: c.session, Payload: payload}, &rep)
	return rep.Payload, err
}

// Detach unbinds the client; close also ends the session and releases
// its capacity.
func (c *Client) Detach(close bool) (string, error) {
	var rep core.SessionDetachReply
	err := c.do(core.MethodSessionDetach, core.SessionDetachArgs{Session: c.session, Close: close}, &rep)
	if err == nil {
		c.session = ""
	}
	return rep.State, err
}
