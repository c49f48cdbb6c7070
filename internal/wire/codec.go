package wire

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"reflect"
	"slices"
	"sync"
	"unsafe"
)

// The struct codec. A value is written as its exported fields in
// declaration order, recursively, with nothing between them:
//
//	bool                   one byte, 0 or 1
//	int*, uint*            AppendInt / AppendUint
//	float32, float64       AppendFloat
//	string, []byte         AppendUint(len) + bytes
//	[]T                    AppendUint(len) + elements
//	[n]T                   elements
//	struct                 exported fields, in order
//
// Pointers, maps, interfaces, channels and functions have no wire form.
// Nil and empty slices are both length 0 and both decode as nil.
//
// Decoding resets the destination rather than zeroing it first: every
// exported field is written — the ones past a cut or an error to zero —
// and a non-byte slice that already has the capacity keeps its backing
// array, each element decoded over. A value that starts zero decodes as
// if it had been zeroed; one that is decoded into again reuses its
// slices, so whoever decodes into a value must not keep them elsewhere.
// A string that already holds the bytes decoded is kept, not copied again:
// a reader decoding one kind of frame over and over pays for the names
// that changed, not for every name. Decoding through a Names ring also
// takes a changed string from the ring when it holds one.
//
// Compatibility is append-only: a struct may grow fields at its end. A
// decoder that reaches the end of the input at a field boundary leaves the
// remaining fields zero, and one that has filled its last field ignores
// what follows — so either side of a link may be the older one. Fields are
// never reordered, retyped or removed.

// plan is the compiled shape of one type, built once and cached.
type plan struct {
	kind   reflect.Kind
	elem   *plan   // slice and array element
	n      int     // array length
	fields []field // struct: exported fields in declaration order
	// min is the fewest bytes an encoded value occupies; a decoded slice
	// length is checked against it before anything is allocated.
	min int
	// floats is the number of float64 words a value is made of when it is
	// made of nothing else (float64, Vec3, [n]Vec3): slices of such
	// elements, like slices of uint64, are walked as one column of words.
	floats int
}

type field struct {
	index int
	plan  *plan
}

var plans sync.Map // reflect.Type -> *plan

func planOf(t reflect.Type) (*plan, error) {
	if p, ok := plans.Load(t); ok {
		return p.(*plan), nil
	}
	p, err := buildPlan(t, map[reflect.Type]bool{})
	if err != nil {
		return nil, err
	}
	plans.Store(t, p)
	return p, nil
}

// buildPlan compiles t. building holds the types under construction, so a
// type that contains a slice of itself is refused instead of recursing
// forever.
func buildPlan(t reflect.Type, building map[reflect.Type]bool) (*plan, error) {
	if building[t] {
		return nil, fmt.Errorf("wire: %v is recursive", t)
	}
	building[t] = true
	defer delete(building, t)
	p := &plan{kind: t.Kind(), min: 1}
	switch t.Kind() {
	case reflect.Bool, reflect.String, reflect.Float32,
		reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
	case reflect.Float64:
		p.floats = 1
	case reflect.Slice:
		e, err := buildPlan(t.Elem(), building)
		if err != nil {
			return nil, err
		}
		if e.min == 0 {
			return nil, fmt.Errorf("wire: %v: slice of zero-size elements", t)
		}
		p.elem = e
	case reflect.Array:
		e, err := buildPlan(t.Elem(), building)
		if err != nil {
			return nil, err
		}
		p.elem, p.n = e, t.Len()
		p.min, p.floats = p.n*e.min, p.n*e.floats
	case reflect.Struct:
		p.min = 0
		for i := 0; i < t.NumField(); i++ {
			sf := t.Field(i)
			if !sf.IsExported() {
				continue
			}
			fp, err := buildPlan(sf.Type, building)
			if err != nil {
				return nil, fmt.Errorf("%w (field %s of %v)", err, sf.Name, t)
			}
			p.fields = append(p.fields, field{i, fp})
			p.min += fp.min
		}
	default:
		return nil, fmt.Errorf("wire: %v has no wire form", t)
	}
	return p, nil
}

// Append encodes v — a struct, or a pointer to one — onto dst and returns
// the extended slice. It panics on a type with no wire form: that is a bug
// in the protocol's types, not a property of any input.
func Append(dst []byte, v any) []byte {
	p, rv := planFor(v)
	return p.encode(dst, rv)
}

func planFor(v any) (*plan, reflect.Value) {
	rv := reflect.ValueOf(v)
	if rv.Kind() == reflect.Pointer {
		rv = rv.Elem()
	}
	if !rv.IsValid() {
		panic("wire: encode of nil")
	}
	p, err := planOf(rv.Type())
	if err != nil {
		panic(err.Error())
	}
	return p, rv
}

// Marshal encodes v into a slice of its own, exactly sized.
func Marshal(v any) []byte { return MarshalBehind(0, v) }

// scratchCap is the largest scratch the pool keeps: kernel's frameClass,
// 64 KiB, which holds every per-op struct message the workloads send (the
// largest, a field_staged result for 1 000 targets, is about 36 KB), while
// a large set_particles or Snapshot pins nothing.
const scratchCap = 64 << 10

// scratch holds the buffers messages are encoded into. A collection empties
// it; a new one starts at 1 KiB, which holds a control message whole.
var scratch = sync.Pool{New: func() any {
	b := make([]byte, 0, 1<<10)
	return &b
}}

// MarshalBehind is Marshal with room zero bytes in front of the encoding:
// the header of the frame v is the body of, which the caller fills in. It
// encodes v once, into a scratch, and copies that behind the room into one
// allocation of exactly room+len, which the caller (the transport) keeps.
// The scratch is pooled and goes back unless it grew past scratchCap; a
// message whose columns alone may outgrow the cap takes one nothing keeps.
func MarshalBehind(room int, v any) []byte {
	p, rv := planFor(v)
	n := p.columnBound(rv)
	var s *[]byte
	var buf []byte
	if n <= scratchCap {
		s = scratch.Get().(*[]byte)
		buf = (*s)[:0]
	}
	enc := p.encode(slices.Grow(buf, n), rv)
	out := make([]byte, room+len(enc))
	copy(out[room:], enc)
	if s != nil {
		if cap(enc) <= scratchCap {
			*s = enc
		}
		scratch.Put(s)
	}
	return out
}

// columnBound is the most bytes v's column fields encode to, 9 a word and 9
// for each length, so that they cost the scratch one growth, not one per
// append-doubling: a 50 000-star upload grows it once, not 34 times.
func (p *plan) columnBound(v reflect.Value) int {
	n := 0
	for _, f := range p.fields {
		if e := f.plan.elem; f.plan.kind == reflect.Slice && (e.floats > 0 || e.kind == reflect.Uint64) {
			n += 9 * (1 + v.Field(f.index).Len()*max(e.floats, 1))
		}
	}
	return n
}

func (p *plan) encode(dst []byte, v reflect.Value) []byte {
	switch p.kind {
	case reflect.Bool:
		if v.Bool() {
			return append(dst, 1)
		}
		return append(dst, 0)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return AppendInt(dst, v.Int())
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		return AppendUint(dst, v.Uint())
	case reflect.Float32, reflect.Float64:
		return AppendFloat(dst, v.Float())
	case reflect.String:
		s := v.String()
		return append(AppendUint(dst, uint64(len(s))), s...)
	case reflect.Slice:
		n := v.Len()
		dst = AppendUint(dst, uint64(n))
		switch {
		case p.elem.kind == reflect.Uint8:
			return append(dst, v.Bytes()...)
		case p.elem.floats > 0 || p.elem.kind == reflect.Uint64:
			return appendColumn(dst, p.column(v, n), p.elem.floats > 0)
		}
		for i := 0; i < n; i++ {
			dst = p.elem.encode(dst, v.Index(i))
		}
	case reflect.Array:
		for i := 0; i < p.n; i++ {
			dst = p.elem.encode(dst, v.Index(i))
		}
	case reflect.Struct:
		for _, f := range p.fields {
			dst = f.plan.encode(dst, v.Field(f.index))
		}
	}
	return dst
}

// column views the 64-bit words behind a slice of n elements made of
// float64s only (plan.floats > 0) or of uint64s.
func (p *plan) column(v reflect.Value, n int) []uint64 {
	return unsafe.Slice((*uint64)(v.UnsafePointer()), n*max(p.elem.floats, 1))
}

// appendColumn appends a column — a float or key slice, or a vector slice's
// flat floats — in one loop over its words, each in AppendFloat's form (a
// float: its IEEE bits byte-reversed) or AppendUint's (a key): the bytes of
// the per-value calls exactly. A word of 8 significant bytes, which is any
// arbitrary float (one whose low mantissa byte is set) and any key from
// 2^56, takes the 9-byte form: length byte 0xF8, then the 8 bytes
// big-endian.
func appendColumn(dst []byte, ws []uint64, float bool) []byte {
	for _, x := range ws {
		if float {
			x = bits.ReverseBytes64(x)
		}
		dst = AppendUint(dst, x)
	}
	return dst
}

// column decodes a column written by appendColumn, reading the one-byte and
// the 9-byte forms in place and every other word through Uint.
func (r *Reader) column(ws []uint64, float bool) {
	b, o := r.B, r.Off // locals: the loop keeps them in registers
	for i := range ws {
		var x uint64
		if o < len(b) && b[o] < 0x80 {
			x, o = uint64(b[o]), o+1
		} else if o+9 <= len(b) && b[o] == 0xF8 {
			x, o = binary.BigEndian.Uint64(b[o+1:o+9]), o+9
		} else if r.Off = o; r.Err == nil {
			x, o = r.Uint("column"), r.Off
		}
		if float {
			x = bits.ReverseBytes64(x)
		}
		ws[i] = x
	}
	r.Off = o
}

// Unmarshal decodes b into the value v points to, which it resets (see
// the codec's comment above). Byte-slice fields alias b; everything else
// is copied out.
func Unmarshal(b []byte, v any) error { return (*Names)(nil).Unmarshal(b, v) }

// namesLen is how many strings a Names ring holds.
const namesLen = 8

// Names is a fixed ring of the last namesLen non-empty strings that
// decodes through it copied out or displaced. Its zero value is empty, and
// its owner decodes through it one message at a time: a reader that keeps
// one beside the value it decodes every message into pays once for each
// name its messages come back to, where they alternate between set and
// empty names or carry names in elements the reader does not keep.
type Names struct {
	ring [namesLen]string
	next int
}

// Unmarshal is the package's Unmarshal, except that a string field whose
// value changes takes the ring's string when the ring holds the bytes
// decoded; a string it copies, and the one the field held, go into the
// ring. Every decoded value is the package's Unmarshal's. A nil n is the
// package's Unmarshal.
func (n *Names) Unmarshal(b []byte, v any) error {
	rv := reflect.ValueOf(v)
	if rv.Kind() != reflect.Pointer || rv.IsNil() {
		return fmt.Errorf("wire: decode into %T, want a non-nil pointer", v)
	}
	rv = rv.Elem()
	p, err := planOf(rv.Type())
	if err != nil {
		return err
	}
	r := Reader{B: b, names: n}
	p.decode(&r, rv, true)
	return r.Err
}

// take returns the string b spells, the ring's when it holds one, and puts
// a copy it makes and old, the string it displaces, into the ring.
func (n *Names) take(b []byte, old string) string {
	if n == nil {
		return string(b)
	}
	var s string
	for _, x := range n.ring[:] {
		if x == string(b) { // compares without copying b
			s = x
			break
		}
	}
	if s == "" && len(b) > 0 {
		s = string(b)
		n.put(s)
	}
	n.put(old)
	return s
}

// put writes a non-empty s over the ring's oldest entry.
func (n *Names) put(s string) {
	if s != "" {
		n.ring[n.next] = s
		n.next = (n.next + 1) % namesLen
	}
}

// decode fills v from r. tail is set while every enclosing value is the
// last thing in the message, which is where the input may end early.
func (p *plan) decode(r *Reader, v reflect.Value, tail bool) {
	switch p.kind {
	case reflect.Bool:
		v.SetBool(r.U8("bool") != 0)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		x := r.Int("int")
		if v.OverflowInt(x) {
			r.overflow(v)
		}
		v.SetInt(x)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		x := r.Uint("uint")
		if v.OverflowUint(x) {
			r.overflow(v)
		}
		v.SetUint(x)
	case reflect.Float32, reflect.Float64:
		v.SetFloat(r.Float("float"))
	case reflect.String:
		if b, old := r.Bytes("string"), v.String(); old != string(b) {
			v.SetString(r.names.take(b, old))
		}
	case reflect.Slice:
		if p.elem.kind == reflect.Uint8 {
			if b := r.Bytes("bytes"); len(b) > 0 {
				v.SetBytes(b)
			} else {
				v.SetZero()
			}
			return
		}
		n := r.length(p.elem.min, "slice length")
		if n == 0 {
			v.SetZero()
			return
		}
		v.SetLen(0)
		v.Grow(n) // keeps the backing array when it has the capacity
		v.SetLen(n)
		if p.elem.floats > 0 || p.elem.kind == reflect.Uint64 {
			r.column(p.column(v, n), p.elem.floats > 0)
			return
		}
		// After an error every read returns zero, so the rest of the
		// elements decode to zero; n is bounded by the input's length.
		for i := 0; i < n; i++ {
			p.elem.decode(r, v.Index(i), false)
		}
	case reflect.Array:
		for i := 0; i < p.n; i++ {
			p.elem.decode(r, v.Index(i), false)
		}
	case reflect.Struct:
		for i, f := range p.fields {
			if r.Err != nil || tail && r.Len() == 0 {
				for _, g := range p.fields[i:] {
					v.Field(g.index).SetZero()
				}
				return
			}
			f.plan.decode(r, v.Field(f.index), tail)
		}
	}
}

// Bytes reads a byte string written as AppendUint(len) + bytes, the struct
// codec's form for strings and byte slices. The result aliases the frame.
func (r *Reader) Bytes(what string) []byte {
	return r.take(r.length(1, what), what)
}

// length reads an element count and checks that count elements of at
// least min bytes each can still follow, so a forged length fails before
// it sizes an allocation.
func (r *Reader) length(min int, what string) int {
	n := r.Uint(what)
	if r.Err == nil && n > uint64(r.Len()/min) {
		r.Err = fmt.Errorf("wire: %s %d exceeds the %d bytes left at offset %d", what, n, r.Len(), r.Off)
	}
	if r.Err != nil {
		return 0
	}
	return int(n)
}

func (r *Reader) overflow(v reflect.Value) {
	if r.Err == nil {
		r.Err = fmt.Errorf("wire: value overflows %v at offset %d", v.Type(), r.Off)
	}
}
