package kernel

import (
	"bytes"
	"compress/flate"
	"fmt"
	"io"

	"jungle/internal/wire"
)

// Columnar wire compression for state and snapshot frames.
//
// The codecs exploit how coupled-simulation state evolves: keys are nearly
// consecutive integers and float columns change slowly between steps, so a
// structure-aware XOR-delta over the column words turns most of the frame
// into near-zero bytes that an LZ-class compressor (flate) then crushes.
//
// Negotiation is self-describing: a compressed frame starts with the
// tagStateZ byte, every raw frame with its own tag. A receiver that calls
// MaybeDecompressState passes raw frames through untouched, and a sender
// that never compresses interoperates with every receiver — the codec byte
// travels in the frame itself, not in a session handshake. Compression is
// applied only at plane boundaries (peer deposit, daemon checkpoint
// arrival); model services always see raw frames.

// Codec identifiers, carried in the compressed frame and in transfer offer
// arguments.
const (
	// CodecRaw leaves frames untouched.
	CodecRaw byte = 0
	// CodecDeltaFlate XOR-deltas each column word lane against its
	// predecessor within the frame (lag 8 bytes for key/float columns,
	// lag 24 for vec columns, component-wise) and deflates the result.
	CodecDeltaFlate byte = 1
	// CodecRefDelta XORs the frame against a previously transmitted base
	// frame (named by ref and guarded by its digest) and deflates the
	// near-zero residue — the checkpoint codec for slowly-evolving runs.
	CodecRefDelta byte = 2
)

// ErrBadCompressed reports an unusable compressed frame.
var ErrBadCompressed = fmt.Errorf("kernel: bad compressed frame")

type dspan struct{ off, n, stride int }

// walkState returns the XOR-delta spans (column payload byte ranges) of a
// state frame starting at off, and the offset just past the frame.
func walkState(b []byte, off int, spans []dspan) ([]dspan, int, bool) {
	need := func(n int) bool { return off+n <= len(b) }
	if !need(6) || b[off] != tagState {
		return nil, 0, false
	}
	n := int(uint32(b[off+1]) | uint32(b[off+2])<<8 | uint32(b[off+3])<<16 | uint32(b[off+4])<<24)
	keyflag := b[off+5]
	off += 6
	if keyflag == 1 {
		if !need(8 * n) {
			return nil, 0, false
		}
		spans = append(spans, dspan{off, 8 * n, 8})
		off += 8 * n
	}
	readU16 := func() (int, bool) {
		if !need(2) {
			return 0, false
		}
		v := int(uint16(b[off]) | uint16(b[off+1])<<8)
		off += 2
		return v, true
	}
	for _, width := range []int{8, 24} {
		cols, ok := readU16()
		if !ok {
			return nil, 0, false
		}
		for i := 0; i < cols; i++ {
			alen, ok := readU16()
			if !ok || !need(alen+width*n) {
				return nil, 0, false
			}
			off += alen
			spans = append(spans, dspan{off, width * n, width})
			off += width * n
		}
	}
	return spans, off, true
}

// frameSpans returns the delta spans of a raw state or snapshot frame, or
// ok=false when the bytes are not a frame the transform understands.
func frameSpans(b []byte) ([]dspan, bool) {
	switch FrameTag(b) {
	case tagState:
		spans, end, ok := walkState(b, 0, nil)
		return spans, ok && end == len(b)
	case tagSnapshot:
		// tag, string16 kind, u64 model, u64 steps, u64 vtime, state flag,
		// optional embedded state frame, bytes32 extra.
		if len(b) < 3 {
			return nil, false
		}
		off := 3 + int(uint16(b[1])|uint16(b[2])<<8) + 24
		if off >= len(b) {
			return nil, false
		}
		flag := b[off]
		off++
		var spans []dspan
		if flag == 1 {
			var ok bool
			spans, off, ok = walkState(b, off, nil)
			if !ok {
				return nil, false
			}
		}
		if off+4 > len(b) {
			return nil, false
		}
		extra := int(uint32(b[off]) | uint32(b[off+1])<<8 | uint32(b[off+2])<<16 | uint32(b[off+3])<<24)
		return spans, off+4+extra == len(b)
	default:
		return nil, false
	}
}

// deltaEncode applies the in-place XOR-delta over the spans (back to front,
// so decode can run front to back).
func deltaEncode(b []byte, spans []dspan) {
	for _, s := range spans {
		for i := s.off + s.n - 1; i >= s.off+s.stride; i-- {
			b[i] ^= b[i-s.stride]
		}
	}
}

func deltaDecode(b []byte, spans []dspan) {
	for _, s := range spans {
		for i := s.off + s.stride; i < s.off+s.n; i++ {
			b[i] ^= b[i-s.stride]
		}
	}
}

// shuffleLanes transposes b into 8 byte-lanes (the HDF5-style shuffle
// filter): byte k of every 8-byte word is grouped with the other words'
// byte k. Near-identical float64 payloads — XOR-delta residues above all —
// zero their sign/exponent/high-mantissa lanes, and grouping turns those
// scattered zeros into the long runs flate crushes. The tail (len%8 bytes)
// stays in place.
func shuffleLanes(b []byte) []byte {
	n := len(b) / 8
	out := make([]byte, len(b))
	for lane := 0; lane < 8; lane++ {
		base := lane * n
		for i := 0; i < n; i++ {
			out[base+i] = b[i*8+lane]
		}
	}
	copy(out[8*n:], b[8*n:])
	return out
}

// unshuffleLanes inverts shuffleLanes.
func unshuffleLanes(b []byte) []byte {
	n := len(b) / 8
	out := make([]byte, len(b))
	for lane := 0; lane < 8; lane++ {
		base := lane * n
		for i := 0; i < n; i++ {
			out[i*8+lane] = b[base+i]
		}
	}
	copy(out[8*n:], b[8*n:])
	return out
}

func deflateBytes(b []byte) []byte {
	var buf bytes.Buffer
	w, _ := flate.NewWriter(&buf, flate.DefaultCompression)
	w.Write(b)
	w.Close()
	return buf.Bytes()
}

func inflateBytes(b []byte, rawLen int) ([]byte, error) {
	r := flate.NewReader(bytes.NewReader(b))
	out := make([]byte, 0, rawLen)
	buf := bytes.NewBuffer(out)
	if _, err := io.Copy(buf, r); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadCompressed, err)
	}
	if buf.Len() != rawLen {
		return nil, fmt.Errorf("%w: inflated %d bytes, want %d", ErrBadCompressed, buf.Len(), rawLen)
	}
	return buf.Bytes(), nil
}

// CompressState encodes a raw frame with CodecDeltaFlate. When compression
// does not pay (incompressible columns, tiny frames), the raw frame is
// returned unchanged — the receiver distinguishes the two by the leading
// tag byte.
func CompressState(frame []byte) []byte {
	spans, ok := frameSpans(frame)
	work := append([]byte(nil), frame...)
	// xform is a bit set: bit 0 = column XOR-delta applied, bit 1 = lane
	// shuffle applied. Frames whose structure does not parse skip the
	// delta but still shuffle (lossless, and float-heavy payloads gain).
	xform := byte(2)
	if ok {
		xform |= 1
		deltaEncode(work, spans)
	}
	comp := deflateBytes(shuffleLanes(work))
	// tag + codec + xform + rawLen + bytes32 header = 11 bytes.
	if 11+len(comp) >= len(frame) {
		return frame
	}
	out := make([]byte, 0, 11+len(comp))
	out = append(out, tagStateZ, CodecDeltaFlate, xform)
	out = wire.AppendU32(out, uint32(len(frame)))
	return wire.AppendBytes32(out, comp)
}

// CompressStateRef encodes a raw frame with CodecRefDelta against a base
// frame previously transmitted to (and retained by) the receiver. Falls
// back to CodecDeltaFlate when the result would not be smaller.
func CompressStateRef(frame, base []byte, baseRef uint64) []byte {
	if len(base) == 0 {
		return CompressState(frame)
	}
	work := append([]byte(nil), frame...)
	n := len(work)
	if len(base) < n {
		n = len(base)
	}
	for i := 0; i < n; i++ {
		work[i] ^= base[i]
	}
	// The residue is always lane-shuffled before deflate: a slow evolution
	// zeroes the high lanes of every float64 word, and grouping them is
	// what makes the 3x-and-better ratios reachable.
	comp := deflateBytes(shuffleLanes(work))
	// tag + codec + ref + digest + rawLen + bytes32 header = 27 bytes.
	if 27+len(comp) >= len(frame) {
		return CompressState(frame)
	}
	out := make([]byte, 0, 27+len(comp))
	out = append(out, tagStateZ, CodecRefDelta)
	out = wire.AppendU64(out, baseRef)
	out = wire.AppendU64(out, Digest64(base))
	out = wire.AppendU32(out, uint32(len(frame)))
	return wire.AppendBytes32(out, comp)
}

// IsCompressedState reports whether a frame is a tagStateZ wrapper.
func IsCompressedState(b []byte) bool { return FrameTag(b) == tagStateZ }

// CompressedBaseRef returns the base reference of a CodecRefDelta frame
// (ok=false for every other frame).
func CompressedBaseRef(b []byte) (uint64, bool) {
	if len(b) < 18 || b[0] != tagStateZ || b[1] != CodecRefDelta {
		return 0, false
	}
	r := wire.Reader{B: b, Off: 2}
	return r.U64("base ref"), r.Err == nil
}

// MaybeDecompressState restores the raw frame behind b. Raw frames (any
// leading tag but tagStateZ) pass through unchanged, which is the
// negotiation fallback: a sender without the codec interoperates with this
// receiver, and vice versa. baseLookup resolves CodecRefDelta base frames
// by reference; pass nil when ref-delta frames cannot occur.
func MaybeDecompressState(b []byte, baseLookup func(ref uint64) ([]byte, bool)) ([]byte, error) {
	if !IsCompressedState(b) {
		return b, nil
	}
	r := wire.Reader{B: b, Off: 1}
	switch codec := r.U8("codec"); codec {
	case CodecDeltaFlate:
		xform := r.U8("xform")
		rawLen := int(r.U32("raw len"))
		comp := r.Bytes32("compressed")
		if r.Err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadCompressed, r.Err)
		}
		raw, err := inflateBytes(comp, rawLen)
		if err != nil {
			return nil, err
		}
		if xform&2 != 0 {
			raw = unshuffleLanes(raw)
		}
		if xform&1 != 0 {
			spans, ok := frameSpans(raw)
			if !ok {
				return nil, fmt.Errorf("%w: transformed frame does not parse", ErrBadCompressed)
			}
			deltaDecode(raw, spans)
		}
		return raw, nil
	case CodecRefDelta:
		ref := r.U64("base ref")
		digest := r.U64("base digest")
		rawLen := int(r.U32("raw len"))
		comp := r.Bytes32("compressed")
		if r.Err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadCompressed, r.Err)
		}
		if baseLookup == nil {
			return nil, fmt.Errorf("%w: ref-delta frame without base lookup", ErrBadCompressed)
		}
		base, ok := baseLookup(ref)
		if !ok {
			return nil, fmt.Errorf("%w: unknown base ref %d", ErrBadCompressed, ref)
		}
		if Digest64(base) != digest {
			return nil, fmt.Errorf("%w: base ref %d digest mismatch", ErrBadCompressed, ref)
		}
		raw, err := inflateBytes(comp, rawLen)
		if err != nil {
			return nil, err
		}
		raw = unshuffleLanes(raw)
		n := len(raw)
		if len(base) < n {
			n = len(base)
		}
		for i := 0; i < n; i++ {
			raw[i] ^= base[i]
		}
		return raw, nil
	default:
		return nil, fmt.Errorf("%w: unknown codec %d", ErrBadCompressed, codec)
	}
}
