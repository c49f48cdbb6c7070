package kernel

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"

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
// extended slice. It is the one state encoder: a detached blob
// (MarshalState), a get_state result (StateReply), a set_state request
// (NewStateRequest) and a snapshot all append through it, into a buffer
// sized by stateSize — the frame that leaves.
func AppendState(dst []byte, s *StatePayload) ([]byte, error) {
	if err := s.check(); err != nil {
		return dst, err
	}
	dst = append(dst, tagState)
	dst = wire.AppendU32(dst, uint32(s.N))
	if len(s.Key) > 0 {
		dst = wire.AppendU64s(append(dst, 1), s.Key)
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

// stateSize is the encoded size of s.
func stateSize(s *StatePayload) int {
	size := 1 + 4 + 1 + 8*len(s.Key) + 2 + 2
	for i, a := range s.FloatAttrs {
		size += 2 + len(a) + 8*len(s.FloatCols[i])
	}
	for i, a := range s.VecAttrs {
		size += 2 + len(a) + 24*len(s.VecCols[i])
	}
	return size
}

// MarshalState marshals s into a detached blob, one exactly-sized
// allocation (setup blobs, shard exchanges; a state on its way to a worker
// or back is encoded into its frame instead).
func MarshalState(s *StatePayload) ([]byte, error) {
	return AppendState(make([]byte, 0, stateSize(s)), s)
}

// StateReply marshals s as a get_state result: straight behind the
// response header's room, so the frame that answers is this buffer — taken
// from the free list, where the coupler hands it back once it has decoded it.
func StateReply(s *StatePayload) (Reply, error) {
	frame, err := AppendState(newReply(stateSize(s)), s)
	return Reply{frame}, err
}

// UnmarshalState parses a frame produced by AppendState into columns of
// its own: the one allocation per column of a caller that is handed them.
func UnmarshalState(b []byte) (*StatePayload, error) {
	v, err := ViewState(b)
	if err != nil {
		return nil, err
	}
	return v.Payload(), nil
}

// StateView is a received state frame, parsed and checked but not decoded:
// each column is a byte range of the frame. A worker applies a view
// straight into the columns its kernel already owns (FloatsInto, VecsInto,
// KeysInto), so a set_state costs no intermediate []float64 or []Vec3.
// Columns are not aliased as typed slices: they start at arbitrary offsets
// behind their names, and padding them into alignment would change the
// wire.
//
// ViewState validates the whole frame — tag, lengths against N, attribute
// names unique — before returning, so a caller that checks N and the names
// against its own columns has nothing left that can fail once it starts
// writing.
type StateView struct {
	N          int
	FloatAttrs []string
	VecAttrs   []string

	key    []byte // 8 N bytes, or nil
	floats [][]byte
	vecs   [][]byte
}

// ViewState parses a frame produced by AppendState. The view aliases b.
func ViewState(b []byte) (StateView, error) {
	r := wire.Reader{B: b}
	v, err := viewState(&r)
	if err == nil && r.Len() != 0 {
		return StateView{}, fmt.Errorf("kernel: %d bytes behind the state frame", r.Len())
	}
	return v, err
}

// viewState parses a state frame at the reader's offset, leaving the
// offset just past it — embedding frames (snapshots) parse the state
// and continue without re-deriving its encoded length.
func viewState(r *wire.Reader) (StateView, error) {
	if tag := r.U8("tag"); r.Err == nil && tag != tagState {
		return StateView{}, fmt.Errorf("kernel: not a state frame (tag 0x%02x)", tag)
	}
	v := StateView{N: int(r.U32("n"))}
	switch flag := r.U8("keyflag"); {
	case flag == 1:
		v.key = r.Column(v.N, 8, "key column")
	case flag != 0 && r.Err == nil:
		return StateView{}, fmt.Errorf("kernel: state frame with key flag 0x%02x", flag)
	}
	v.FloatAttrs, v.floats = v.columns(r, 8, "float column")
	v.VecAttrs, v.vecs = v.columns(r, 24, "vec column")
	if r.Err != nil {
		return StateView{}, r.Err
	}
	return v, nil
}

// columns reads one counted list of named columns, width bytes an entry.
func (v *StateView) columns(r *wire.Reader, width int, what string) (attrs []string, cols [][]byte) {
	n := int(r.U16(what))
	if r.Err != nil || n == 0 {
		return nil, nil
	}
	if n > r.Len()/2 { // a name alone takes two bytes
		r.Fail(what)
		return nil, nil
	}
	attrs, cols = make([]string, 0, n), make([][]byte, 0, n)
	for i := 0; i < n && r.Err == nil; i++ {
		a := r.String16(what)
		if r.Err == nil && (slices.Contains(attrs, a) || slices.Contains(v.FloatAttrs, a)) {
			r.Err = fmt.Errorf("kernel: state frame carries attribute %q twice", a)
		}
		attrs, cols = append(attrs, a), append(cols, r.Column(v.N, width, what))
	}
	return attrs, cols
}

// HasKeys reports whether the frame carries the key column.
func (v *StateView) HasKeys() bool { return v.key != nil }

// KeysInto decodes the key column into dst, which must hold N entries.
func (v *StateView) KeysInto(dst []uint64) { wire.DecodeU64s(dst, v.key) }

// FloatAt decodes entry j of scalar column i: what a kind uses to check a
// column's values before it writes any.
func (v *StateView) FloatAt(i, j int) float64 {
	return math.Float64frombits(binary.LittleEndian.Uint64(v.floats[i][8*j:]))
}

// FloatsInto decodes scalar column i into dst, which must hold N entries.
func (v *StateView) FloatsInto(i int, dst []float64) { wire.DecodeFloats(dst, v.floats[i]) }

// VecsInto decodes vector column i into dst, which must hold N entries.
func (v *StateView) VecsInto(i int, dst []data.Vec3) { wire.DecodeVecs(dst, v.vecs[i]) }

// Float decodes the named scalar column into a slice of its own, or
// returns nil.
func (v *StateView) Float(attr string) []float64 {
	if i := slices.Index(v.FloatAttrs, attr); i >= 0 {
		return wire.NewColumn[float64](v.floats[i])
	}
	return nil
}

// Vec decodes the named vector column into a slice of its own, or returns
// nil.
func (v *StateView) Vec(attr string) []data.Vec3 {
	if i := slices.Index(v.VecAttrs, attr); i >= 0 {
		return wire.NewColumn[data.Vec3](v.vecs[i])
	}
	return nil
}

// Payload decodes every column into a payload that owns them, each written
// once (wire.NewColumn).
func (v *StateView) Payload() *StatePayload {
	s := &StatePayload{N: v.N, FloatAttrs: v.FloatAttrs, VecAttrs: v.VecAttrs}
	if v.key != nil {
		s.Key = wire.NewColumn[uint64](v.key)
	}
	if len(v.floats) > 0 {
		s.FloatCols = make([][]float64, len(v.floats))
	}
	for i, col := range v.floats {
		s.FloatCols[i] = wire.NewColumn[float64](col)
	}
	if len(v.vecs) > 0 {
		s.VecCols = make([][]data.Vec3, len(v.vecs))
	}
	for i, col := range v.vecs {
		s.VecCols[i] = wire.NewColumn[data.Vec3](col)
	}
	return s
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

// ScatterView decodes a received frame's columns straight into a particle
// set of the same length and order: ScatterState without the payload in
// between.
func ScatterView(p *data.Particles, v *StateView) error {
	if p.Len() != v.N {
		return fmt.Errorf("kernel: state has %d particles, set has %d", v.N, p.Len())
	}
	for i, a := range v.VecAttrs {
		col, err := p.VecColumn(a)
		if err != nil {
			return err
		}
		v.VecsInto(i, col)
	}
	for i, a := range v.FloatAttrs {
		if col, err := p.FloatColumn(a); err == nil {
			v.FloatsInto(i, col)
			continue
		}
		// Integer attributes (stellar_type) travel as float columns.
		icol, err := p.IntColumn(a)
		if err != nil {
			return err
		}
		for j := range icol {
			icol[j] = int(v.FloatAt(i, j))
		}
	}
	return nil
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
