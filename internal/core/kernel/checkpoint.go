package kernel

import (
	"fmt"
	"math"
	"time"

	"jungle/internal/wire"
)

// Checkpoint/restore: a worker can externalize its complete model state as
// a Snapshot and later be rebuilt from one — the capability underneath
// stateful worker replacement, gang rank recovery and resumable
// simulations. A snapshot is the full phase-space state as a columnar
// StatePayload (the same codec bulk transfers ride) plus model-clock
// metadata and an optional kind-private blob for state that has no
// columnar shape (stellar populations, staged slots).
//
// Two ordinary dispatch methods carry the capability over every channel:
//
//   - "checkpoint" (no args): marshal a Snapshot of the worker's state.
//     The result is the raw snapshot frame, not a typed payload, so the
//     coupler can store and re-send it without ever decoding the columns.
//   - "restore" (args: a snapshot frame): replace the worker's model state
//     with the snapshot's. Restore is only meaningful after "setup" has
//     configured the kernel; the snapshot carries dynamic state, not
//     configuration.
//
// Because both are ordinary calls on the per-worker FIFO, a checkpoint
// issued behind pipelined work naturally waits for that work to finish —
// the FIFO drain point is the snapshot's consistency rule (see DESIGN.md
// "Checkpoint & recovery").

// Checkpoint/restore dispatch methods (served by the model service), and
// the proxy-level op that streams a snapshot over the peer plane.
const (
	MethodCheckpoint = "checkpoint"
	MethodRestore    = "restore"
	// MethodOfferCheckpoint is handled by the worker's proxy, like
	// offer_state: take a snapshot (a loopback "checkpoint" call) and
	// stream the frame to the Peer address — normally the daemon's
	// checkpoint store — without the bytes visiting the coupler.
	MethodOfferCheckpoint = "offer_checkpoint"
)

// Snapshot is one worker's complete model state at a quiescent point.
type Snapshot struct {
	// Kind is the worker kind that produced the snapshot; Restore rejects
	// a snapshot from a different kind.
	Kind string
	// Model is the kernel's model clock (N-body time units).
	Model float64
	// Steps is the kernel's integrator step count.
	Steps int
	// VTime is the service's virtual clock when the snapshot was taken
	// (diagnostics; restore does not rewind a replacement's clock).
	VTime time.Duration
	// State carries the phase-space columns (nil for kinds whose dynamic
	// state is fully in Extra).
	State *StatePayload
	// Extra is a kind-private blob (kernel.Encode of a kind-private
	// struct) for non-columnar state.
	Extra []byte
}

// Checkpointable is the capability interface a service implements to
// support checkpoint/restore. Both methods run on the worker's dispatch
// goroutine, so they see quiescent model state.
type Checkpointable interface {
	// Snapshot externalizes the complete model state.
	Snapshot() (*Snapshot, error)
	// Restore replaces the model state with the snapshot's. The service
	// must already be configured (setup dispatched); restoring a snapshot
	// of a different kind is an error. Extra aliases the restore request's
	// frame: decode what you keep out of it, never keep it (Service.Dispatch).
	Restore(*Snapshot) error
}

// ServeCheckpoint serves the two checkpoint dispatch methods for a
// service: services route their "checkpoint"/"restore" cases here so the
// frame handling lives in one place.
func ServeCheckpoint(c Checkpointable, method string, args []byte) (Reply, error) {
	switch method {
	case MethodCheckpoint:
		snap, err := c.Snapshot()
		if err != nil {
			return Reply{}, err
		}
		frame, err := AppendSnapshot(newReply(snapshotSize(snap)), snap)
		return Reply{frame}, err
	case MethodRestore:
		snap, err := UnmarshalSnapshot(args)
		if err != nil {
			return Reply{}, err
		}
		if err := c.Restore(snap); err != nil {
			return Reply{}, err
		}
		return EncodeReply(Empty{}), nil
	default:
		return Reply{}, fmt.Errorf("%w: %s is not a checkpoint method", ErrNoSuchMethod, method)
	}
}

// CheckKind is the shared Restore precondition: the snapshot must come
// from the same worker kind.
func (s *Snapshot) CheckKind(kind string) error {
	if s.Kind != kind {
		return fmt.Errorf("kernel: restore: snapshot of kind %q onto a %q worker", s.Kind, kind)
	}
	return nil
}

// OfferCheckpointArgs asks a worker's proxy to snapshot its service and
// stream the frame to a peer listener (the daemon's checkpoint store).
type OfferCheckpointArgs struct {
	// ID names the stream; the store files the blob under it.
	ID uint64
	// Peer is the destination listener's address ("host:port" in the
	// SmartSockets address space).
	Peer string
}

// Snapshot wire framing. The frame embeds an unmodified StatePayload
// frame, so the columns cross the codec exactly once.

// AppendSnapshot marshals s into dst and returns the extended slice.
func AppendSnapshot(dst []byte, s *Snapshot) ([]byte, error) {
	dst = append(dst, tagSnapshot)
	dst = wire.AppendString16(dst, s.Kind)
	dst = wire.AppendU64(dst, math.Float64bits(s.Model))
	dst = wire.AppendU64(dst, uint64(s.Steps))
	dst = wire.AppendU64(dst, uint64(s.VTime))
	if s.State != nil {
		var err error
		dst = append(dst, 1)
		if dst, err = AppendState(dst, s.State); err != nil {
			return dst, err
		}
	} else {
		dst = append(dst, 0)
	}
	return wire.AppendBytes32(dst, s.Extra), nil
}

// snapshotSize is the encoded size of s.
func snapshotSize(s *Snapshot) int {
	size := 1 + 2 + len(s.Kind) + 8 + 8 + 8 + 1 + 4 + len(s.Extra)
	if s.State != nil {
		size += stateSize(s.State)
	}
	return size
}

// UnmarshalSnapshot parses a frame produced by AppendSnapshot. Extra
// aliases b; the state columns are decoded into slices of their own.
func UnmarshalSnapshot(b []byte) (*Snapshot, error) {
	r := wire.Reader{B: b}
	if tag := r.U8("tag"); r.Err == nil && tag != tagSnapshot {
		return nil, fmt.Errorf("kernel: not a snapshot frame (tag 0x%02x)", tag)
	}
	s := &Snapshot{
		Kind:  r.String16("kind"),
		Model: math.Float64frombits(r.U64("model clock")),
		Steps: int(r.U64("steps")),
		VTime: time.Duration(r.U64("vtime")),
	}
	if r.U8("stateflag") == 1 {
		if r.Err != nil {
			return nil, r.Err
		}
		// viewState leaves the reader just past the embedded frame, so the
		// snapshot codec never re-derives the state frame's length.
		v, err := viewState(&r)
		if err != nil {
			return nil, err
		}
		s.State = v.Payload()
	}
	s.Extra = r.Bytes32("extra")
	if r.Err != nil {
		return nil, r.Err
	}
	return s, nil
}
