package kernel

import (
	"bytes"
	"fmt"
	"math"
	"slices"
	"testing"

	"jungle/internal/amuse/data"
	"jungle/internal/wire"
)

// The frame builders as they were while every hop copied: a state was
// marshalled into a slice of its own and each frame was a fresh allocation
// with that slice copied behind its header. Kept verbatim as the oracle the
// in-place builders (StateReply + FrameResponse, NewStateRequest,
// NewApplyRequest, TransferFromResponse) are held to byte for byte: the wire
// must not know the copies went. The columns are written word by word, as
// the codec wrote them before a column became one copy of its memory.

func oracleMarshalState(s *StatePayload) ([]byte, error) {
	size := 1 + 4 + 1 + 8*len(s.Key) + 2 + 2
	for i, a := range s.FloatAttrs {
		size += 2 + len(a) + 8*len(s.FloatCols[i])
	}
	for i, a := range s.VecAttrs {
		size += 2 + len(a) + 24*len(s.VecCols[i])
	}
	return oracleAppendState(make([]byte, 0, size), s)
}

func oracleAppendState(dst []byte, s *StatePayload) ([]byte, error) {
	if err := s.check(); err != nil {
		return dst, err
	}
	dst = append(dst, tagState)
	dst = wire.AppendU32(dst, uint32(s.N))
	if len(s.Key) > 0 {
		dst = append(dst, 1)
		for _, k := range s.Key {
			dst = wire.AppendU64(dst, k)
		}
	} else {
		dst = append(dst, 0)
	}
	dst = wire.AppendU16(dst, uint16(len(s.FloatAttrs)))
	for i, a := range s.FloatAttrs {
		dst = wire.AppendString16(dst, a)
		for _, x := range s.FloatCols[i] {
			dst = wire.AppendU64(dst, math.Float64bits(x))
		}
	}
	dst = wire.AppendU16(dst, uint16(len(s.VecAttrs)))
	for i, a := range s.VecAttrs {
		dst = wire.AppendString16(dst, a)
		for _, v := range s.VecCols[i] {
			for _, x := range v {
				dst = wire.AppendU64(dst, math.Float64bits(x))
			}
		}
	}
	return dst, nil
}

func oracleAppendRequest(dst []byte, req *Request) []byte {
	dst = slices.Grow(dst, 1+8+8+8+2+len(req.Method)+4+len(req.Args))
	dst = append(dst, tagRequest)
	dst = wire.AppendU64(dst, req.ID)
	dst = wire.AppendU64(dst, uint64(req.Worker))
	dst = wire.AppendU64(dst, uint64(req.SentAt))
	dst = wire.AppendString16(dst, req.Method)
	return wire.AppendBytes32(dst, req.Args)
}

func oracleAppendResponse(dst []byte, resp *Response) []byte {
	dst = slices.Grow(dst, 1+8+1+8+2+len(resp.Err)+4+len(resp.Result))
	dst = append(dst, tagResponse)
	dst = wire.AppendU64(dst, resp.ID)
	dst = append(dst, byte(resp.Code))
	dst = wire.AppendU64(dst, uint64(resp.DoneAt))
	dst = wire.AppendString16(dst, resp.Err)
	return wire.AppendBytes32(dst, resp.Result)
}

func oracleAppendTransfer(dst []byte, id uint64, state []byte) []byte {
	dst = slices.Grow(dst, 1+8+1+4+len(state))
	dst = append(dst, tagTransfer)
	dst = wire.AppendU64(dst, id)
	dst = append(dst, 0) // data, not abort
	return wire.AppendBytes32(dst, state)
}

func oracleAppendStaged(dst []byte, slot uint64, state []byte) []byte {
	dst = slices.Grow(dst, 1+8+4+len(state))
	dst = append(dst, tagStaged)
	dst = wire.AppendU64(dst, slot)
	return wire.AppendBytes32(dst, state)
}

// oracleParticlesToPayload is ParticlesToPayload as it was while the coupler
// kept the upload as its particle cache: every column copied.
func oracleParticlesToPayload(p *data.Particles) ParticlesPayload {
	return ParticlesPayload{
		Mass: append([]float64(nil), p.Mass...),
		Pos:  append([]data.Vec3(nil), p.Pos...),
		Vel:  append([]data.Vec3(nil), p.Vel...),
		U:    append([]float64(nil), p.InternalEnergy...),
		H:    append([]float64(nil), p.SmoothingLen...),
		Key:  append([]uint64(nil), p.Key...),
	}
}

// oracleEncodeUpload is the set_particles payload as the struct codec wrote
// it value by value, before a column became one loop over its words: each
// column's length, then each float through AppendFloat and each key through
// AppendUint.
func oracleEncodeUpload(pl ParticlesPayload) []byte {
	var b []byte
	floats := func(fs []float64) {
		b = wire.AppendUint(b, uint64(len(fs)))
		for _, f := range fs {
			b = wire.AppendFloat(b, f)
		}
	}
	vecs := func(vs []data.Vec3) {
		b = wire.AppendUint(b, uint64(len(vs)))
		for _, v := range vs {
			b = wire.AppendFloat(wire.AppendFloat(wire.AppendFloat(b, v[0]), v[1]), v[2])
		}
	}
	floats(pl.Mass)
	vecs(pl.Pos)
	vecs(pl.Vel)
	floats(pl.U)
	floats(pl.H)
	b = wire.AppendUint(b, uint64(len(pl.Key)))
	for _, k := range pl.Key {
		b = wire.AppendUint(b, k)
	}
	return b
}

// ScatterState writes a payload's columns back into a particle set of the
// same length and order: the copy ScatterView replaced, and what a worker's
// restore did before it took the snapshot's columns as its own.
func ScatterState(p *data.Particles, s *StatePayload) error {
	if p.Len() != s.N {
		return fmt.Errorf("kernel: state has %d particles, set has %d", s.N, p.Len())
	}
	for i, a := range s.VecAttrs {
		col, err := p.VecColumn(a)
		if err != nil {
			return err
		}
		copy(col, s.VecCols[i])
	}
	for i, a := range s.FloatAttrs {
		if col, err := p.FloatColumn(a); err == nil {
			copy(col, s.FloatCols[i])
			continue
		}
		// Integer attributes (stellar_type) travel as float columns.
		icol, err := p.IntColumn(a)
		if err != nil {
			return err
		}
		for j, v := range s.FloatCols[i] {
			icol[j] = int(v)
		}
	}
	return nil
}

// TestApplyInPlaceIsTheCopy: the accepting proxy applies a received transfer
// frame's state where it lies (ApplyArgs) instead of copying it into a
// request frame of its own (NewApplyRequest). Its args are the copy's byte
// for byte, with a staging slot and without one, so the loopback hop is
// priced by the same Size.
func TestApplyInPlaceIsTheCopy(t *testing.T) {
	for _, n := range []int{0, 1000} {
		for name, st := range bulkPayloads(n) {
			for _, slot := range []uint64{0, 0x0102030405060708} {
				res, err := StateReply(st)
				if err != nil {
					t.Fatal(err)
				}
				var resp Response
				if err := UnmarshalResponse(FrameResponse(7, res, 0, nil), &resp); err != nil {
					t.Fatal(err)
				}
				frame := TransferFromResponse(resp.Frame(), len(resp.Result), 9)
				_, state, _, err := UnmarshalTransfer(frame)
				if err != nil {
					t.Fatal(err)
				}
				copied := NewApplyRequest("stage_sources", slot, state)
				inPlace := Request{Method: "stage_sources", Args: ApplyArgs(frame, state, slot)}
				if !bytes.Equal(inPlace.Args, copied.Args) {
					t.Errorf("%s/%d, slot %d: in-place args differ from the copy's at byte %d", name, n, slot, firstDiff(inPlace.Args, copied.Args))
				}
				if inPlace.Size() != copied.Size() {
					t.Errorf("%s/%d, slot %d: in-place request is %d bytes, the copy %d", name, n, slot, inPlace.Size(), copied.Size())
				}
			}
		}
	}
}
