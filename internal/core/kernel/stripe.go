package kernel

import (
	"fmt"
	"slices"

	"jungle/internal/wire"
)

// Striped transfers split one encoded payload frame across N parallel peer
// connections, GridFTP-style: a single WAN stream often cannot fill a fat
// link, so bulk state rides several circuits at once. The split operates on
// the encoded bytes at 8-byte-aligned offsets — the state frame is
// column-major, so stripe boundaries fall between whole float64 words of a
// column (column-wise, row-chunked within the boundary column), never
// inside one.
//
// Wire protocol: the sender opens one manifest connection carrying a
// StripeManifest frame (transfer id, codec, total length, per-stripe
// offset/length/digest), plus one connection per stripe, each carrying a
// single stripe frame. The receiver reassembles out-of-order arrivals into
// the original payload, verifies every digest, and acknowledges on the
// manifest connection at the virtual time the last stripe landed.

// StripeInfo describes one stripe of a striped transfer.
type StripeInfo struct {
	Offset, Length uint32
	Digest         uint64 // FNV-1a 64 of the stripe bytes
}

// StripeManifest describes a striped transfer.
type StripeManifest struct {
	ID      uint64
	Codec   byte // codec of the reassembled payload (CodecRaw if none)
	Total   uint32
	Stripes []StripeInfo
}

// Digest64 is the FNV-1a 64 digest used for stripe verification.
func Digest64(b []byte) uint64 {
	const offset, prime = 14695981039346656037, 1099511628211
	h := uint64(offset)
	for _, x := range b {
		h ^= uint64(x)
		h *= prime
	}
	return h
}

// SplitStripes returns the offsets cutting a payload of length total into n
// contiguous 8-byte-aligned spans (the i-th span is [off[i], off[i+1])).
// len(off) == n+1; spans can be empty for tiny payloads.
func SplitStripes(total, n int) []int {
	if n < 1 {
		n = 1
	}
	off := make([]int, n+1)
	for i := 1; i < n; i++ {
		off[i] = (total * i / n) &^ 7
		if off[i] < off[i-1] {
			off[i] = off[i-1]
		}
	}
	off[n] = total
	return off
}

// AppendManifest marshals a stripe manifest.
func AppendManifest(dst []byte, m *StripeManifest) []byte {
	dst = append(dst, tagManifest)
	dst = wire.AppendU64(dst, m.ID)
	dst = append(dst, m.Codec)
	dst = wire.AppendU32(dst, m.Total)
	dst = wire.AppendU16(dst, uint16(len(m.Stripes)))
	for _, s := range m.Stripes {
		dst = wire.AppendU32(dst, s.Offset)
		dst = wire.AppendU32(dst, s.Length)
		dst = wire.AppendU64(dst, s.Digest)
	}
	return dst
}

// UnmarshalManifest parses a frame produced by AppendManifest.
func UnmarshalManifest(b []byte) (*StripeManifest, error) {
	r := wire.Reader{B: b}
	if tag := r.U8("tag"); r.Err == nil && tag != tagManifest {
		return nil, fmt.Errorf("kernel: not a manifest frame (tag 0x%02x)", tag)
	}
	m := &StripeManifest{ID: r.U64("id"), Codec: r.U8("codec"), Total: r.U32("total")}
	count := int(r.U16("count"))
	for i := 0; i < count && r.Err == nil; i++ {
		m.Stripes = append(m.Stripes, StripeInfo{
			Offset: r.U32("offset"), Length: r.U32("length"), Digest: r.U64("digest"),
		})
	}
	if r.Err != nil {
		return nil, r.Err
	}
	return m, nil
}

// IsManifest reports whether a frame opens a striped transfer.
func IsManifest(b []byte) bool { return FrameTag(b) == tagManifest }

// IsStripe reports whether a frame carries one stripe.
func IsStripe(b []byte) bool { return FrameTag(b) == tagStripe }

// AppendStripe marshals one stripe: transfer id, stripe index, bytes.
func AppendStripe(dst []byte, id uint64, index int, data []byte) []byte {
	dst = slices.Grow(dst, 1+8+2+4+len(data))
	dst = append(dst, tagStripe)
	dst = wire.AppendU64(dst, id)
	dst = wire.AppendU16(dst, uint16(index))
	return wire.AppendBytes32(dst, data)
}

// UnmarshalStripe parses a frame produced by AppendStripe. data aliases b.
func UnmarshalStripe(b []byte) (id uint64, index int, data []byte, err error) {
	r := wire.Reader{B: b}
	if tag := r.U8("tag"); r.Err == nil && tag != tagStripe {
		return 0, 0, nil, fmt.Errorf("kernel: not a stripe frame (tag 0x%02x)", tag)
	}
	id = r.U64("id")
	index = int(r.U16("index"))
	data = r.Bytes32("data")
	return id, index, data, r.Err
}
