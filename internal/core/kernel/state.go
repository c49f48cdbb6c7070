package kernel

import (
	"fmt"

	"jungle/internal/amuse/data"
	"jungle/internal/wire"
)

// StatePayload is the batched columnar state transfer: whole attribute
// columns move in one RPC instead of one call per particle (or per
// attribute). It is the argument of "set_state" and the result of
// "get_state", and always travels through the fixed-width column codec
// below (raw little-endian IEEE bits, 8 bytes per float) — never through
// the struct codec the small typed payloads use.
//
// Columns are positional: index i in every column refers to the same
// particle, in the order the worker's set_particles call established.
type StatePayload struct {
	N int
	// Key, when non-empty, carries the particles' stable identifiers.
	Key []uint64
	// Parallel slices: FloatCols[i] holds the column named FloatAttrs[i].
	FloatAttrs []string
	FloatCols  [][]float64
	VecAttrs   []string
	VecCols    [][]data.Vec3
}

// NewState returns an empty payload for n particles.
func NewState(n int) *StatePayload { return &StatePayload{N: n} }

// AddFloat appends a scalar column. The slice is referenced, not copied.
func (s *StatePayload) AddFloat(attr string, col []float64) *StatePayload {
	s.FloatAttrs = append(s.FloatAttrs, attr)
	s.FloatCols = append(s.FloatCols, col)
	return s
}

// AddVec appends a vector column. The slice is referenced, not copied.
func (s *StatePayload) AddVec(attr string, col []data.Vec3) *StatePayload {
	s.VecAttrs = append(s.VecAttrs, attr)
	s.VecCols = append(s.VecCols, col)
	return s
}

// Float returns the named scalar column, or nil.
func (s *StatePayload) Float(attr string) []float64 {
	for i, a := range s.FloatAttrs {
		if a == attr {
			return s.FloatCols[i]
		}
	}
	return nil
}

// Vec returns the named vector column, or nil.
func (s *StatePayload) Vec(attr string) []data.Vec3 {
	for i, a := range s.VecAttrs {
		if a == attr {
			return s.VecCols[i]
		}
	}
	return nil
}

func (s *StatePayload) check() error {
	if len(s.Key) != 0 && len(s.Key) != s.N {
		return fmt.Errorf("kernel: state key column has %d entries, N=%d", len(s.Key), s.N)
	}
	for i, col := range s.FloatCols {
		if len(col) != s.N {
			return fmt.Errorf("kernel: state column %q has %d entries, N=%d", s.FloatAttrs[i], len(col), s.N)
		}
	}
	for i, col := range s.VecCols {
		if len(col) != s.N {
			return fmt.Errorf("kernel: state column %q has %d entries, N=%d", s.VecAttrs[i], len(col), s.N)
		}
	}
	return nil
}

// AppendState marshals s into dst with the fast codec and returns the
// extended slice.
func AppendState(dst []byte, s *StatePayload) ([]byte, error) {
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

// MarshalState marshals s into a single exactly-sized allocation.
func MarshalState(s *StatePayload) ([]byte, error) {
	size := 1 + 4 + 1 + 8*len(s.Key) + 2 + 2
	for i, a := range s.FloatAttrs {
		size += 2 + len(a) + 8*len(s.FloatCols[i])
	}
	for i, a := range s.VecAttrs {
		size += 2 + len(a) + 24*len(s.VecCols[i])
	}
	return AppendState(make([]byte, 0, size), s)
}

// UnmarshalState parses a frame produced by AppendState.
func UnmarshalState(b []byte) (*StatePayload, error) {
	r := wire.Reader{B: b}
	return readState(&r)
}

// readState parses a state frame at the reader's offset, leaving the
// offset just past it — embedding frames (snapshots) parse the state
// and continue without re-deriving its encoded length.
func readState(r *wire.Reader) (*StatePayload, error) {
	if tag := r.U8("tag"); r.Err == nil && tag != tagState {
		return nil, fmt.Errorf("kernel: not a state frame (tag 0x%02x)", tag)
	}
	s := &StatePayload{N: int(r.U32("n"))}
	if r.U8("keyflag") == 1 {
		if r.Err == nil && r.Off+8*s.N > len(r.B) {
			r.Fail("key column")
			return nil, r.Err
		}
		s.Key = make([]uint64, s.N)
		for i := range s.Key {
			s.Key[i] = r.U64("key")
		}
	}
	nf := int(r.U16("nfloat"))
	for i := 0; i < nf && r.Err == nil; i++ {
		s.FloatAttrs = append(s.FloatAttrs, r.String16("float attr"))
		s.FloatCols = append(s.FloatCols, r.Floats(s.N, "float col"))
	}
	nv := int(r.U16("nvec"))
	for i := 0; i < nv && r.Err == nil; i++ {
		s.VecAttrs = append(s.VecAttrs, r.String16("vec attr"))
		s.VecCols = append(s.VecCols, wire.Vecs[data.Vec3](r, s.N, "vec col"))
	}
	if r.Err != nil {
		return nil, r.Err
	}
	return s, nil
}

// StateRequest selects the columns a "get_state" call should return.
type StateRequest struct {
	Attrs []string
}

// AppendStateRequest marshals q into dst.
func AppendStateRequest(dst []byte, q *StateRequest) []byte {
	dst = append(dst, tagStateReq)
	dst = wire.AppendU16(dst, uint16(len(q.Attrs)))
	for _, a := range q.Attrs {
		dst = wire.AppendString16(dst, a)
	}
	return dst
}

// UnmarshalStateRequest parses a frame produced by AppendStateRequest.
func UnmarshalStateRequest(b []byte) (*StateRequest, error) {
	r := wire.Reader{B: b}
	if tag := r.U8("tag"); r.Err == nil && tag != tagStateReq {
		return nil, fmt.Errorf("kernel: not a state request frame (tag 0x%02x)", tag)
	}
	q := &StateRequest{}
	n := int(r.U16("nattrs"))
	for i := 0; i < n && r.Err == nil; i++ {
		q.Attrs = append(q.Attrs, r.String16("attr"))
	}
	if r.Err != nil {
		return nil, r.Err
	}
	return q, nil
}

// GatherState extracts the named columns from a particle set into a
// payload (slices are referenced, not copied; marshal before mutating).
// With no attrs it gathers mass, position and velocity.
func GatherState(p *data.Particles, attrs ...string) (*StatePayload, error) {
	if len(attrs) == 0 {
		attrs = []string{data.AttrMass, data.AttrPos, data.AttrVel}
	}
	s := NewState(p.Len())
	s.Key = p.Key
	for _, a := range attrs {
		if col, err := p.VecColumn(a); err == nil {
			s.AddVec(a, col)
			continue
		}
		if col, err := p.FloatColumn(a); err == nil {
			s.AddFloat(a, col)
			continue
		}
		// Integer attributes (stellar_type) travel as float columns.
		icol, err := p.IntColumn(a)
		if err != nil {
			return nil, err
		}
		col := make([]float64, len(icol))
		for i, v := range icol {
			col[i] = float64(v)
		}
		s.AddFloat(a, col)
	}
	return s, nil
}

// ScatterState writes a payload's columns back into a particle set of the
// same length and order.
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
