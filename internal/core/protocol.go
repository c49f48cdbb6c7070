// Package core implements the paper's contribution: Distributed AMUSE.
// A Python-style coupler script (here: the Simulation API) talks through a
// local daemon to workers started on remote resources via IbisDeploy and
// JavaGAT; wide-area RPC travels over IPL/SmartSockets to a proxy in the
// worker process, which dispatches each request into the model service
// and prices that hop as Fig. 5's loopback connection. Virtual clocks
// account compute and communication time end to end.
//
// The coupler surface is asynchronous and context-aware: every RPC is a
// *Call future (Model.Go and the Go* methods; Gather fans pipelined
// calls back in), and the session context bounds every wait. Two data
// paths exist beside the RPC plane: bulk columns move worker-to-worker
// over each ibis worker's peer listener (Simulation.TransferState and
// the staged field path, with transparent hairpin fallback), and a
// kernel may be deployed as a gang of K rank workers
// (WorkerSpec.Workers) that domain-decompose one model instance behind a
// single handle, exchanging halos over those same peer links. One payload
// is one acknowledged stream; how each transfer was carried (direct,
// hairpin, fallback) is counted in TransferStats and, per link, in the
// link-health table.
//
// The session is checkpointable: Simulation.Checkpoint snapshots every
// model at a FIFO-drained consistency point into a self-contained
// Manifest (blobs stream worker-to-daemon over the peer plane), worker
// replacement restores the newest snapshot — making gang ranks
// recoverable — and ResumeSimulation rebuilds a whole session from a
// saved manifest bit-compatibly.
//
// Gangs are elastic: a gang's ranks share their slab compute times on the
// last exchange of every evolve and, past a skew threshold, agree new
// throughput-proportional slab boundaries (mpisim.Rebalance) with
// bit-identical results; the evolve reply carries what they agreed on, and
// trace.Recorder.RenderGangs shows it. Migrate moves a whole gang to
// another resource live via checkpoint/restore, and Resize grows or
// shrinks the rank count mid-run; a rebuilt gang starts from uniform slabs.
//
// The wire protocol — request/response framing, typed payloads, the
// batched columnar state codec, transfer and gang-link frames, and the
// registry that maps worker kinds to their model services — lives in
// internal/core/kernel. Physics packages register their services there;
// this package never constructs a model directly (import
// internal/kernels, or the adapter packages you need, to link the kinds
// into the binary).
package core

import (
	"errors"

	"jungle/internal/core/kernel"
)

// Errors. The wire taxonomy sentinels are the kernel package's: any error
// a worker, channel or the daemon produces crosses the codec as a
// structured code and unwraps to exactly one of these with errors.Is —
// see kernel.Code and kernel.WireError.
var (
	ErrWorkerDied    = kernel.ErrWorkerDied
	ErrNoSuchMethod  = kernel.ErrNoSuchMethod
	ErrBadMethod     = kernel.ErrBadMethod
	ErrBadKind       = kernel.ErrBadKind
	ErrWorkerFault   = kernel.ErrWorkerFault
	ErrTransport     = kernel.ErrTransport
	ErrBusy          = kernel.ErrBusy
	ErrChannelClosed = errors.New("core: channel closed")
)

// Session control-plane operations. These ride the same Request/Response
// frames as worker RPC but are served by the jungled gateway itself (the
// multi-tenant control plane in internal/sched), not by a worker channel:
// a thin client attaches to a session, keeps its lease alive with
// heartbeats, submits work, and detaches. Admission rejections come back
// as CodeBusy responses whose payload is a SessionBusy with the
// structured retry-after hint.
const (
	MethodSessionAttach    = "session_attach"
	MethodSessionHeartbeat = "session_heartbeat"
	MethodSessionRun       = "session_run"
	MethodSessionStatus    = "session_status"
	MethodSessionDetach    = "session_detach"
)

// SessionAttachArgs asks the control plane to admit (or re-attach to) a
// session. Wait queues the attach until capacity frees instead of
// rejecting with CodeBusy.
type SessionAttachArgs struct {
	Session string
	Wait    bool
}

// SessionAttachReply reports the admitted session's state.
type SessionAttachReply struct {
	Session string
	State   string
	Resumed bool // true when the session was revived from its checkpoint
}

// SessionHeartbeatArgs renews a session's lease.
type SessionHeartbeatArgs struct{ Session string }

// SessionHeartbeatReply acknowledges a lease renewal.
type SessionHeartbeatReply struct{ State string }

// SessionRunArgs submits one unit of work to a session. Payload is opaque
// to the protocol — the control plane's configured run handler interprets
// it (jungled: an exp.SessionWork, which crosses real TCP).
type SessionRunArgs struct {
	Session string
	Payload []byte
}

// SessionRunReply carries the run handler's opaque result.
type SessionRunReply struct{ Payload []byte }

// SessionStatusArgs asks for one session's control-plane view.
type SessionStatusArgs struct{ Session string }

// SessionStatusReply is the control-plane view of a session.
type SessionStatusReply struct {
	State   string
	Workers int
	Live    int // sessions currently running on the plane
	Queued  int // sessions waiting for admission
}

// SessionDetachArgs detaches a client; Close also ends the session and
// releases its capacity.
type SessionDetachArgs struct {
	Session string
	Close   bool
}

// SessionDetachReply reports the state the session was left in.
type SessionDetachReply struct{ State string }

// SessionBusy is the payload of a CodeBusy response: the structured
// retry-after hint admission control returns when the plane is full.
type SessionBusy struct {
	RetryAfterMs int64
	Queued       int
}

// Kind is the model type a worker hosts (Fig. 3's model boxes). The
// constants below name the four kinds the paper's evaluation uses; any
// kind registered with the kernel registry is equally valid.
type Kind string

// Worker kinds.
const (
	KindGravity Kind = "gravity"  // PhiGRAPE equivalent
	KindHydro   Kind = "hydro"    // Gadget equivalent
	KindStellar Kind = "stellar"  // SSE equivalent
	KindField   Kind = "coupling" // Octgrav / Fi equivalent
)

// request/response are the RPC frames moved by every channel; the framing
// and the typed payloads inside it are both internal/wire layouts (no
// per-call encoder state anywhere on the path).
type (
	request  = kernel.Request
	response = kernel.Response
)
