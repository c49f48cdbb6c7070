// Package wire is the jungle's one wire codec: every per-message encode
// and decode on the RPC, SmartSockets and IPL paths goes through it.
//
// It has two layers. The fixed-width layer — little-endian append helpers
// and the bounds-checked Reader — frames requests, responses and the bulk
// state columns (internal/core/kernel).
// The struct codec (codec.go: Append, Marshal, Unmarshal) carries the typed
// argument/result payloads, the SmartSockets frame and the IPL registry
// messages: exported fields in declaration order, no names and no type
// descriptors on the wire.
//
// Marshalling appends into a caller-provided buffer and unmarshalling
// aliases sub-slices of the received frame, so a message costs no encoder
// state. Everything read from the wire is untrusted: a truncated frame or
// a length that exceeds the input is an error, never a panic and never an
// allocation sized by an unchecked length.
package wire

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
)

func AppendU16(dst []byte, v uint16) []byte { return binary.LittleEndian.AppendUint16(dst, v) }
func AppendU32(dst []byte, v uint32) []byte { return binary.LittleEndian.AppendUint32(dst, v) }
func AppendU64(dst []byte, v uint64) []byte { return binary.LittleEndian.AppendUint64(dst, v) }

// AppendBytes32 appends b behind its 32-bit length.
func AppendBytes32(dst, b []byte) []byte {
	dst = AppendU32(dst, uint32(len(b)))
	return append(dst, b...)
}

// AppendString16 appends s behind its 16-bit length. A string longer than
// the length can express is cut to 65535 bytes: the text is diagnostic
// (error messages, attribute names), the frame after it is not.
func AppendString16(dst []byte, s string) []byte {
	if len(s) > math.MaxUint16 {
		s = s[:math.MaxUint16]
	}
	dst = AppendU16(dst, uint16(len(s)))
	return append(dst, s...)
}

// AppendFloats appends each float's IEEE bits, 8 bytes little-endian.
func AppendFloats(dst []byte, xs []float64) []byte {
	for _, x := range xs {
		dst = AppendU64(dst, math.Float64bits(x))
	}
	return dst
}

// AppendVecs appends each component's IEEE bits, 24 bytes per vector.
func AppendVecs[V ~[3]float64](dst []byte, vs []V) []byte {
	for _, v := range vs {
		dst = AppendU64(dst, math.Float64bits(v[0]))
		dst = AppendU64(dst, math.Float64bits(v[1]))
		dst = AppendU64(dst, math.Float64bits(v[2]))
	}
	return dst
}

// The struct codec's scalars use a trimmed form: a value below 128 is one
// byte; anything else is a byte holding the negated count of significant
// bytes, then those bytes big-endian. It is the form encoding/gob uses, so
// a value never takes more bytes here than it did there.

// AppendUint appends x in the trimmed form (1 to 9 bytes).
func AppendUint(dst []byte, x uint64) []byte {
	if x < 0x80 {
		return append(dst, byte(x))
	}
	n := (bits.Len64(x) + 7) / 8
	if n == 8 { // an arbitrary float: skip the variable-length copy
		return binary.BigEndian.AppendUint64(append(dst, 0xF8), x)
	}
	var tmp [9]byte
	binary.BigEndian.PutUint64(tmp[1:], x)
	tmp[8-n] = byte(-n)
	return append(dst, tmp[8-n:]...)
}

// AppendInt appends i with its sign folded into the low bit, so small
// magnitudes of either sign stay short.
func AppendInt(dst []byte, i int64) []byte {
	x := uint64(i) << 1
	if i < 0 {
		x = ^x
	}
	return AppendUint(dst, x)
}

// AppendFloat appends f's IEEE bits byte-reversed, so the exponent and
// leading mantissa bytes are the significant ones and the trailing zero
// mantissa bytes of round values are trimmed: 0 is 1 byte, 1.0 is 3, an
// arbitrary float 9. The bits cross unchanged (-0, NaN payloads,
// subnormals).
func AppendFloat(dst []byte, f float64) []byte {
	return AppendUint(dst, bits.ReverseBytes64(math.Float64bits(f)))
}

// Reader walks a received frame. The first failure sticks in Err and
// every later read returns zero, so a parser checks Err once at the end.
type Reader struct {
	B   []byte // the frame
	Off int    // next unread byte
	Err error
}

// Len returns the number of unread bytes.
func (r *Reader) Len() int { return len(r.B) - r.Off }

// Fail records a truncation reading the named field.
func (r *Reader) Fail(what string) {
	if r.Err == nil {
		r.Err = fmt.Errorf("wire: truncated frame reading %s at offset %d/%d", what, r.Off, len(r.B))
	}
}

// take returns the next n bytes, or nil after recording a failure.
func (r *Reader) take(n int, what string) []byte {
	if r.Err != nil || n < 0 || n > r.Len() {
		r.Fail(what)
		return nil
	}
	v := r.B[r.Off : r.Off+n : r.Off+n]
	r.Off += n
	return v
}

func (r *Reader) U8(what string) byte {
	if b := r.take(1, what); b != nil {
		return b[0]
	}
	return 0
}

func (r *Reader) U16(what string) uint16 {
	if b := r.take(2, what); b != nil {
		return binary.LittleEndian.Uint16(b)
	}
	return 0
}

func (r *Reader) U32(what string) uint32 {
	if b := r.take(4, what); b != nil {
		return binary.LittleEndian.Uint32(b)
	}
	return 0
}

func (r *Reader) U64(what string) uint64 {
	if b := r.take(8, what); b != nil {
		return binary.LittleEndian.Uint64(b)
	}
	return 0
}

// Bytes32 reads a slice written by AppendBytes32. The result aliases the
// frame.
func (r *Reader) Bytes32(what string) []byte {
	return r.take(int(r.U32(what)), what)
}

// String16 reads a string written by AppendString16.
func (r *Reader) String16(what string) string {
	return string(r.take(int(r.U16(what)), what))
}

// Column reads a column of n elements of width bytes each, as written by
// AppendFloats (width 8) or AppendVecs (24). The result aliases the frame:
// DecodeFloats / DecodeVecs decode it where the values are to live. A count
// the frame cannot hold fails before anything is sized by it.
func (r *Reader) Column(n, width int, what string) []byte {
	if r.Err != nil || n < 0 || n > r.Len()/width {
		r.Fail(what)
		return nil
	}
	return r.take(n*width, what)
}

// DecodeFloats decodes len(dst) floats from a column written by
// AppendFloats.
func DecodeFloats(dst []float64, col []byte) {
	col = col[:8*len(dst)]
	for i := range dst {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(col[8*i:]))
	}
}

// DecodeVecs decodes len(dst) vectors from a column written by AppendVecs.
func DecodeVecs[V ~[3]float64](dst []V, col []byte) {
	col = col[:24*len(dst)]
	for i := range dst {
		c := col[24*i : 24*i+24]
		dst[i][0] = math.Float64frombits(binary.LittleEndian.Uint64(c))
		dst[i][1] = math.Float64frombits(binary.LittleEndian.Uint64(c[8:]))
		dst[i][2] = math.Float64frombits(binary.LittleEndian.Uint64(c[16:]))
	}
}

// Uint reads a value written by AppendUint.
func (r *Reader) Uint(what string) uint64 {
	if r.Err != nil || r.Off >= len(r.B) {
		r.Fail(what)
		return 0
	}
	b := r.B[r.Off]
	r.Off++
	if b < 0x80 {
		return uint64(b)
	}
	n := -int(int8(b))
	if n > 8 {
		r.Err = fmt.Errorf("wire: bad length byte 0x%02x reading %s at offset %d", b, what, r.Off-1)
		return 0
	}
	if n > r.Len() {
		r.Fail(what)
		return 0
	}
	var tmp [8]byte
	copy(tmp[8-n:], r.B[r.Off:r.Off+n])
	r.Off += n
	return binary.BigEndian.Uint64(tmp[:])
}

// Int reads a value written by AppendInt.
func (r *Reader) Int(what string) int64 {
	x := r.Uint(what)
	if x&1 != 0 {
		return ^int64(x >> 1)
	}
	return int64(x >> 1)
}

// Float reads a value written by AppendFloat.
func (r *Reader) Float(what string) float64 {
	return math.Float64frombits(bits.ReverseBytes64(r.Uint(what)))
}
