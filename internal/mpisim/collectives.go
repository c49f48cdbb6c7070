package mpisim

import (
	"bytes"
	"encoding/binary"
	"fmt"

	"jungle/internal/vtime"
)

// Collective operations. All are implemented over the point-to-point layer
// with rank 0 (or the given root) acting as coordinator, so virtual clocks
// synchronize exactly the way a flat-tree MPI implementation would: the
// root's clock advances to the latest arrival, and every participant's clock
// advances to the arrival of the root's release/broadcast message.
//
// The collectives are generic over Comm, so they run identically whether
// the ranks are goroutines of one multi-node worker (World/Rank) or worker
// processes of a sharded kernel gang exchanging over the overlay (Gang).
// Every member of the communicator must call the same collective in the
// same order, as in MPI. Mismatched calls deadlock, also as in MPI.

// Comm is the communicator surface the collectives need: identity, a
// virtual clock, and ordered point-to-point messaging. *Rank and *Gang
// both implement it.
type Comm interface {
	// ID returns this member's rank number.
	ID() int
	// Size returns the communicator size.
	Size() int
	// Clock returns the member's virtual clock (sends are stamped with it,
	// receives advance it).
	Clock() *vtime.Clock
	// Send transmits data to a peer rank. Like the connection underneath
	// it takes ownership of data: a collective that sends one buffer to
	// several ranks, or hands it back to its caller, sends clones.
	Send(to int, data []byte) error
	// Recv blocks for the next message from a peer rank.
	Recv(from int) ([]byte, error)
}

// ComputeFlops advances a member's clock by the time dev needs for the
// given flop count using n cores — per-rank compute accounting between
// exchanges.
func ComputeFlops(c Comm, dev *vtime.Device, flops float64, n int) {
	c.Clock().Advance(dev.Time(flops, n))
}

func sendFloats(c Comm, to int, x []float64) error {
	return c.Send(to, floatsToBytes(x))
}

func recvFloats(c Comm, from int) ([]float64, error) {
	b, err := c.Recv(from)
	if err != nil {
		return nil, err
	}
	return bytesToFloats(b)
}

// Barrier blocks until all ranks arrive. Clocks: all ranks leave the barrier
// at (root receipt of last arrival) + release delivery time to them.
func Barrier(c Comm) error {
	const root = 0
	if c.Size() == 1 {
		return nil
	}
	if c.ID() == root {
		for p := 1; p < c.Size(); p++ {
			if _, err := c.Recv(p); err != nil {
				return fmt.Errorf("mpisim: barrier gather from %d: %w", p, err)
			}
		}
		for p := 1; p < c.Size(); p++ {
			if err := c.Send(p, nil); err != nil {
				return fmt.Errorf("mpisim: barrier release to %d: %w", p, err)
			}
		}
		return nil
	}
	if err := c.Send(root, nil); err != nil {
		return err
	}
	_, err := c.Recv(root)
	return err
}

// Bcast distributes root's buffer to every rank; non-root ranks pass nil (or
// anything — their argument is ignored) and receive the broadcast value.
// Root keeps data (it is also root's return value), so every rank is sent
// a clone.
func Bcast(c Comm, root int, data []byte) ([]byte, error) {
	if c.Size() == 1 {
		return data, nil
	}
	if c.ID() == root {
		for p := 0; p < c.Size(); p++ {
			if p == root {
				continue
			}
			if err := c.Send(p, bytes.Clone(data)); err != nil {
				return nil, fmt.Errorf("mpisim: bcast to %d: %w", p, err)
			}
		}
		return data, nil
	}
	return c.Recv(root)
}

// BcastFloats broadcasts a float64 slice from root.
func BcastFloats(c Comm, root int, x []float64) ([]float64, error) {
	if c.Size() == 1 {
		return x, nil
	}
	if c.ID() == root {
		_, err := Bcast(c, root, floatsToBytes(x))
		return x, err
	}
	b, err := Bcast(c, root, nil)
	if err != nil {
		return nil, err
	}
	return bytesToFloats(b)
}

// AllreduceSum element-wise sums x across ranks; every rank receives the
// total. Implemented as reduce-to-0 + bcast. The summation order is fixed by
// rank, so the result is bitwise deterministic.
func AllreduceSum(c Comm, x []float64) ([]float64, error) {
	const root = 0
	if c.Size() == 1 {
		out := make([]float64, len(x))
		copy(out, x)
		return out, nil
	}
	if c.ID() == root {
		sum := make([]float64, len(x))
		copy(sum, x)
		for p := 1; p < c.Size(); p++ {
			part, err := recvFloats(c, p)
			if err != nil {
				return nil, fmt.Errorf("mpisim: allreduce gather from %d: %w", p, err)
			}
			if len(part) != len(sum) {
				return nil, fmt.Errorf("mpisim: allreduce length mismatch: rank %d sent %d, want %d", p, len(part), len(sum))
			}
			for i := range sum {
				sum[i] += part[i]
			}
		}
		return BcastFloats(c, root, sum)
	}
	if err := sendFloats(c, root, x); err != nil {
		return nil, err
	}
	return BcastFloats(c, root, nil)
}

// AllreduceMax element-wise maximizes x across ranks.
func AllreduceMax(c Comm, x []float64) ([]float64, error) {
	const root = 0
	if c.Size() == 1 {
		out := make([]float64, len(x))
		copy(out, x)
		return out, nil
	}
	if c.ID() == root {
		acc := make([]float64, len(x))
		copy(acc, x)
		for p := 1; p < c.Size(); p++ {
			part, err := recvFloats(c, p)
			if err != nil {
				return nil, err
			}
			if len(part) != len(acc) {
				return nil, fmt.Errorf("mpisim: allreduce length mismatch: rank %d sent %d, want %d", p, len(part), len(acc))
			}
			for i := range acc {
				if part[i] > acc[i] {
					acc[i] = part[i]
				}
			}
		}
		return BcastFloats(c, root, acc)
	}
	if err := sendFloats(c, root, x); err != nil {
		return nil, err
	}
	return BcastFloats(c, root, nil)
}

// AllgatherFloats concatenates every rank's slice in rank order; all ranks
// receive the full concatenation. Slices may have different lengths (the
// slab decomposition's remainder blocks differ by one).
func AllgatherFloats(c Comm, x []float64) ([]float64, error) {
	const root = 0
	if c.Size() == 1 {
		out := make([]float64, len(x))
		copy(out, x)
		return out, nil
	}
	if c.ID() == root {
		parts := make([][]float64, c.Size())
		parts[root] = x
		for p := 1; p < c.Size(); p++ {
			part, err := recvFloats(c, p)
			if err != nil {
				return nil, fmt.Errorf("mpisim: allgather from %d: %w", p, err)
			}
			parts[p] = part
		}
		var all []float64
		for _, part := range parts {
			all = append(all, part...)
		}
		return BcastFloats(c, root, all)
	}
	if err := sendFloats(c, root, x); err != nil {
		return nil, err
	}
	return BcastFloats(c, root, nil)
}

// AllgatherBytes gathers every rank's opaque blob; all ranks receive the
// full rank-ordered set. This is the halo-exchange primitive of sharded
// kernels: each rank's blob is its boundary columns encoded with the
// columnar state codec, and the collective never inspects the bytes. b is
// consumed: it is sent to root, or comes back as root's own part.
func AllgatherBytes(c Comm, b []byte) ([][]byte, error) {
	const root = 0
	if c.Size() == 1 {
		return [][]byte{append([]byte(nil), b...)}, nil
	}
	if c.ID() == root {
		parts := make([][]byte, c.Size())
		parts[root] = b
		for p := 1; p < c.Size(); p++ {
			part, err := c.Recv(p)
			if err != nil {
				return nil, fmt.Errorf("mpisim: allgather from %d: %w", p, err)
			}
			parts[p] = part
		}
		packed := packBlobs(parts)
		for p := 1; p < c.Size(); p++ {
			msg := packed
			if p < c.Size()-1 {
				msg = bytes.Clone(packed) // the last rank gets the original
			}
			if err := c.Send(p, msg); err != nil {
				return nil, fmt.Errorf("mpisim: allgather bcast to %d: %w", p, err)
			}
		}
		return parts, nil
	}
	if err := c.Send(root, b); err != nil {
		return nil, err
	}
	packed, err := c.Recv(root)
	if err != nil {
		return nil, err
	}
	return unpackBlobs(packed)
}

// packBlobs concatenates length-prefixed blobs for the allgather
// broadcast.
func packBlobs(parts [][]byte) []byte {
	size := 4
	for _, p := range parts {
		size += 4 + len(p)
	}
	out := make([]byte, 0, size)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(parts)))
	for _, p := range parts {
		out = binary.LittleEndian.AppendUint32(out, uint32(len(p)))
		out = append(out, p...)
	}
	return out
}

func unpackBlobs(b []byte) ([][]byte, error) {
	if len(b) < 4 {
		return nil, fmt.Errorf("mpisim: truncated blob pack (%d bytes)", len(b))
	}
	n := int(binary.LittleEndian.Uint32(b))
	off := 4
	parts := make([][]byte, 0, n)
	for i := 0; i < n; i++ {
		if off+4 > len(b) {
			return nil, fmt.Errorf("mpisim: truncated blob pack at entry %d", i)
		}
		l := int(binary.LittleEndian.Uint32(b[off:]))
		off += 4
		if off+l > len(b) {
			return nil, fmt.Errorf("mpisim: truncated blob %d (%d bytes past end)", i, off+l-len(b))
		}
		parts = append(parts, b[off:off+l:off+l])
		off += l
	}
	return parts, nil
}

// SendRecv exchanges buffers with a partner rank (both sides must call it
// with each other's rank). Deadlock is avoided by ordering on rank number.
// data is consumed.
func SendRecv(c Comm, peer int, data []byte) ([]byte, error) {
	if peer == c.ID() {
		cp := make([]byte, len(data))
		copy(cp, data)
		return cp, nil
	}
	if c.ID() < peer {
		if err := c.Send(peer, data); err != nil {
			return nil, err
		}
		return c.Recv(peer)
	}
	in, err := c.Recv(peer)
	if err != nil {
		return nil, err
	}
	if err := c.Send(peer, data); err != nil {
		return nil, err
	}
	return in, nil
}

// Rank method sugar: the historical per-rank collective API, now thin
// wrappers over the generic Comm implementations above.

// Barrier blocks until all ranks arrive.
func (r *Rank) Barrier() error { return Barrier(r) }

// Bcast distributes root's buffer to every rank.
func (r *Rank) Bcast(root int, data []byte) ([]byte, error) { return Bcast(r, root, data) }

// BcastFloats broadcasts a float64 slice from root.
func (r *Rank) BcastFloats(root int, x []float64) ([]float64, error) { return BcastFloats(r, root, x) }

// AllreduceSum element-wise sums x across ranks.
func (r *Rank) AllreduceSum(x []float64) ([]float64, error) { return AllreduceSum(r, x) }

// AllreduceMax element-wise maximizes x across ranks.
func (r *Rank) AllreduceMax(x []float64) ([]float64, error) { return AllreduceMax(r, x) }

// AllgatherFloats concatenates every rank's slice in rank order.
func (r *Rank) AllgatherFloats(x []float64) ([]float64, error) { return AllgatherFloats(r, x) }

// SendRecv exchanges buffers with a partner rank.
func (r *Rank) SendRecv(peer int, data []byte) ([]byte, error) { return SendRecv(r, peer, data) }
