package kernel

import (
	"slices"

	"jungle/internal/wire"
)

// The frame builders as they were while every hop copied: a state was
// marshalled into a slice of its own and each frame was a fresh allocation
// with that slice copied behind its header. Kept verbatim as the oracle the
// in-place builders (StateReply + FrameResponse, NewStateRequest,
// NewApplyRequest, TransferFromResponse) are held to byte for byte: the wire
// must not know the copies went.

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
		dst = wire.AppendFloats(dst, s.FloatCols[i])
	}
	dst = wire.AppendU16(dst, uint16(len(s.VecAttrs)))
	for i, a := range s.VecAttrs {
		dst = wire.AppendString16(dst, a)
		dst = wire.AppendVecs(dst, s.VecCols[i])
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
