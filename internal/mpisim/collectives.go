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
// They run on a Gang whatever its links are: the goroutine ranks of one
// multi-node worker (World) or the worker processes of a sharded kernel
// exchanging over the overlay. Every member of the communicator must call
// the same collective in the same order, as in MPI. Mismatched calls
// deadlock, also as in MPI.

// ComputeFlops advances a member's clock by the time dev needs for the
// given flop count using n cores — per-rank compute accounting between
// exchanges.
func ComputeFlops(c *Gang, dev *vtime.Device, flops float64, n int) {
	c.Clock().Advance(dev.Time(flops, n))
}

// fanOut sends msg from root to every other rank and consumes it: the last
// receiver gets msg itself, the others a clone each (Send takes ownership).
func fanOut(c *Gang, root int, msg []byte, what string) error {
	last := c.Size() - 1
	if last == root {
		last--
	}
	for p := 0; p <= last; p++ {
		if p == root {
			continue
		}
		out := msg
		if p != last {
			out = bytes.Clone(msg)
		}
		if err := c.Send(p, out); err != nil {
			return fmt.Errorf("mpisim: %s to %d: %w", what, p, err)
		}
	}
	return nil
}

// BcastFloats broadcasts a float64 slice from root.
func BcastFloats(c *Gang, root int, x []float64) ([]float64, error) {
	if c.Size() == 1 {
		return x, nil
	}
	if c.ID() == root {
		return x, fanOut(c, root, floatsToBytes(x), "bcast")
	}
	b, err := c.Recv(root)
	if err != nil {
		return nil, err
	}
	return appendFloats(nil, b)
}

// allreduce folds every rank's x into rank 0's copy, part by part in rank
// order (so the result is bitwise deterministic), and broadcasts the result.
// fold combines one rank's encoded part into the accumulator.
func allreduce(c *Gang, x []float64, fold func(acc []float64, part []byte)) ([]float64, error) {
	const root = 0
	if c.Size() == 1 {
		return append([]float64(nil), x...), nil
	}
	if c.ID() == root {
		acc := append([]float64(nil), x...)
		for p := 1; p < c.Size(); p++ {
			part, err := c.Recv(p)
			if err != nil {
				return nil, fmt.Errorf("mpisim: allreduce gather from %d: %w", p, err)
			}
			if len(part) != 8*len(acc) {
				return nil, fmt.Errorf("mpisim: allreduce length mismatch: rank %d sent %d bytes, want %d", p, len(part), 8*len(acc))
			}
			fold(acc, part)
		}
		return BcastFloats(c, root, acc)
	}
	if err := c.Send(root, floatsToBytes(x)); err != nil {
		return nil, err
	}
	return BcastFloats(c, root, nil)
}

// AllreduceSum element-wise sums x across ranks; every rank receives the
// total. Implemented as reduce-to-0 + bcast.
func AllreduceSum(c *Gang, x []float64) ([]float64, error) {
	return allreduce(c, x, func(acc []float64, part []byte) {
		for i := range acc {
			acc[i] += floatAt(part, i)
		}
	})
}

// AllreduceMax element-wise maximizes x across ranks.
func AllreduceMax(c *Gang, x []float64) ([]float64, error) {
	return allreduce(c, x, func(acc []float64, part []byte) {
		for i := range acc {
			if v := floatAt(part, i); v > acc[i] {
				acc[i] = v
			}
		}
	})
}

// AllgatherFloats concatenates every rank's slice in rank order; all ranks
// receive the full concatenation. Slices may have different lengths (the
// slab decomposition's remainder blocks differ by one). The result is
// appended to dst[:0] and returned, so a caller that passes room for the
// whole gather gets it decoded in place and compares the returned length
// with what it expected. x may be a part of dst: it is encoded (or, on the
// root, moved to the front) before anything is written.
func AllgatherFloats(c *Gang, x, dst []float64) ([]float64, error) {
	const root = 0
	dst = dst[:0]
	if c.Size() == 1 {
		return append(dst, x...), nil
	}
	if c.ID() == root {
		dst = append(dst, x...)
		for p := 1; p < c.Size(); p++ {
			part, err := c.Recv(p)
			if err != nil {
				return nil, fmt.Errorf("mpisim: allgather from %d: %w", p, err)
			}
			if dst, err = appendFloats(dst, part); err != nil {
				return nil, err
			}
		}
		return dst, fanOut(c, root, floatsToBytes(dst), "allgather bcast")
	}
	if err := c.Send(root, floatsToBytes(x)); err != nil {
		return nil, err
	}
	all, err := c.Recv(root)
	if err != nil {
		return nil, err
	}
	return appendFloats(dst, all)
}

// AllgatherBytes gathers every rank's opaque blob; all ranks receive the
// full rank-ordered set. This is the halo-exchange primitive of sharded
// kernels: each rank's blob is its boundary columns encoded with the
// columnar state codec, and the collective never inspects the bytes. b is
// consumed: it is sent to root, or comes back as root's own part.
func AllgatherBytes(c *Gang, b []byte) ([][]byte, error) {
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
		return parts, fanOut(c, root, packBlobs(parts), "allgather bcast")
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

// AllreduceSum element-wise sums x across ranks: the method form bench/
// jbench's probes call on a World rank (DESIGN.md § Sharded kernels).
func (g *Gang) AllreduceSum(x []float64) ([]float64, error) { return AllreduceSum(g, x) }

// AllgatherFloats concatenates every rank's slice in rank order into a new
// slice: the method form bench/jbench's probes call on a World rank
// (DESIGN.md § Sharded kernels).
func (g *Gang) AllgatherFloats(x []float64) ([]float64, error) { return AllgatherFloats(g, x, nil) }
