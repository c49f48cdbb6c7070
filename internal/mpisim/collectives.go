package mpisim

import (
	"encoding/binary"
	"fmt"

	"jungle/internal/vtime"
	"jungle/internal/wire"
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
//
// The float collectives are both ends of every message they send, so they
// copy no byte that nobody writes (DESIGN.md § Buffer ownership): a
// non-root rank sends its x as a view, which the root appends or folds
// before it answers, and returns only once that answer has arrived; the
// root's one answer goes to every rank as the same buffer, which each only
// decodes or counts. The one part copied is the last of an evolve, whose
// rank's load goes on its end (Gang.CarryLoad).

// ComputeFlops advances a member's clock by the time dev needs for the
// given flop count using n cores — per-rank compute accounting between
// exchanges.
func ComputeFlops(c *Gang, dev *vtime.Device, flops float64, n int) {
	c.Clock().Advance(dev.Time(flops, n))
}

// fanOut sends root's message to every other rank, each the same buffer.
func fanOut(c *Gang, root int, msg []byte, what string) error {
	for p := 0; p < c.Size(); p++ {
		if p == root {
			continue
		}
		if err := c.Send(p, msg); err != nil {
			return fmt.Errorf("mpisim: %s to %d: %w", what, p, err)
		}
	}
	return nil
}

// BcastFloats broadcasts a float64 slice from root, which encodes x once:
// its caller may write x as soon as it returns.
func BcastFloats(c *Gang, root int, x []float64) ([]float64, error) {
	if c.Size() == 1 {
		return x, nil
	}
	if c.ID() == root {
		return x, fanOut(c, root, wire.AppendFloats(nil, x), "bcast")
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
	if err := c.Send(root, wire.FloatsView(x)); err != nil {
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

// AllgatherFloats concatenates every rank's slice in rank order, hands
// every rank the concatenation and returns its length. Slices may have
// different lengths (the slab decomposition's remainder blocks differ by
// one). A gather that fits in dst is decoded into its front, so a caller
// that passes its whole array compares the length with what it expected; x
// may be a part of dst: every part is in the root's gathered message before
// anything is written. A nil dst asks for the length alone, which is all
// the goroutine ranks of a World need: they share the arrays a gather would
// fill. The root forwards the parts' bytes as they came.
func AllgatherFloats(c *Gang, x, dst []float64) (int, error) {
	if c.Size() == 1 {
		if len(x) <= len(dst) {
			copy(dst, x)
		}
		return len(x), nil
	}
	n := 0
	err := allgather(c, x, func(all []byte) error {
		if n = len(all) / 8; n <= len(dst) {
			wire.DecodeFloats(dst[:n], all)
		}
		return nil
	})
	return n, err
}

// allgather sends x to the root, which appends every rank's encoded part in
// rank order and broadcasts the result; every rank hands it, a whole number
// of floats, to read, the root before it lets go of it.
func allgather(c *Gang, x []float64, read func(all []byte) error) error {
	const root = 0
	if c.ID() != root {
		if err := c.Send(root, c.carryPart(wire.FloatsView(x))); err != nil {
			return err
		}
		all, err := c.Recv(root)
		if err == nil {
			all, err = c.takeAll(all)
		}
		if err != nil {
			return err
		}
		if err := wholeFloats(all); err != nil {
			return err
		}
		return read(all)
	}
	// Room for slabs that differ by one row, as Slab cuts them.
	all := wire.AppendFloats(make([]byte, 0, 8*(len(x)+1)*c.Size()), x)
	for p := 1; p < c.Size(); p++ {
		part, err := c.Recv(p)
		if err == nil {
			part, err = c.takePart(p, part)
		}
		if err != nil {
			return fmt.Errorf("mpisim: allgather from %d: %w", p, err)
		}
		if err := wholeFloats(part); err != nil {
			return err
		}
		all = append(all, part...)
	}
	if err := read(all); err != nil {
		return err
	}
	return fanOut(c, root, c.carryAll(all), "allgather bcast")
}

// AllgatherBytes gathers every rank's opaque blob; all ranks receive the
// full rank-ordered set. This is the halo-exchange primitive of sharded
// kernels: each rank's blob is its boundary columns encoded with the
// columnar state codec, and the collective never inspects the bytes. b is
// consumed: it is sent to root, or comes back as root's own part. Every
// rank owns what it gets back: the root packs the set once per receiver.
func AllgatherBytes(c *Gang, b []byte) ([][]byte, error) {
	const root = 0
	if c.Size() == 1 {
		return [][]byte{b}, nil
	}
	if c.ID() == root {
		parts := make([][]byte, c.Size())
		parts[root] = b
		for p := 1; p < c.Size(); p++ {
			part, err := c.Recv(p)
			if err == nil {
				part, err = c.takePart(p, part)
			}
			if err != nil {
				return nil, fmt.Errorf("mpisim: allgather from %d: %w", p, err)
			}
			parts[p] = part
		}
		loads := c.carryAll(nil)
		for p := 1; p < c.Size(); p++ {
			if err := c.Send(p, packBlobs(parts, loads)); err != nil {
				return nil, fmt.Errorf("mpisim: allgather bcast to %d: %w", p, err)
			}
		}
		return parts, nil
	}
	if err := c.Send(root, c.carryPart(b)); err != nil {
		return nil, err
	}
	packed, err := c.Recv(root)
	if err == nil {
		packed, err = c.takeAll(packed)
	}
	if err != nil {
		return nil, err
	}
	return unpackBlobs(packed)
}

// packBlobs concatenates length-prefixed blobs for the allgather
// broadcast, and the carried loads (Gang.CarryLoad) after them.
func packBlobs(parts [][]byte, loads []byte) []byte {
	size := 4 + len(loads)
	for _, p := range parts {
		size += 4 + len(p)
	}
	out := make([]byte, 0, size)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(parts)))
	for _, p := range parts {
		out = binary.LittleEndian.AppendUint32(out, uint32(len(p)))
		out = append(out, p...)
	}
	return append(out, loads...)
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
func (g *Gang) AllgatherFloats(x []float64) ([]float64, error) {
	var all []float64
	err := allgather(g, x, func(b []byte) (err error) {
		all, err = appendFloats(nil, b)
		return err
	})
	return all, err
}
