package wire

import (
	"fmt"
	"math"
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
	// elements are walked as one flat []float64.
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
	return p.encode(dst, rv)
}

// scratch is what Marshal encodes into before cloning the result: small
// control messages only. A bulk frame is built once at its exact size and
// handed to the transport, so a buffer that grew past maxPooled is never
// parked (to be regrown by append-doubling after the next collection
// empties the pool): Marshal hands it out as the message instead.
var scratch = sync.Pool{New: func() any {
	b := make([]byte, 0, 4096)
	return &b
}}

const maxPooled = 64 << 10

// Marshal encodes v into a slice of its own: a clone, exactly sized, of
// the pooled scratch it was encoded in — or, for a message that outgrew
// what the pool keeps, the scratch itself.
func Marshal(v any) []byte { return MarshalBehind(0, v) }

// MarshalBehind is Marshal with room zero bytes in front of the encoding:
// the header of the frame v is the body of, which the caller fills in.
func MarshalBehind(room int, v any) []byte {
	buf := scratch.Get().(*[]byte)
	*buf = Append(append((*buf)[:0], make([]byte, room)...), v)
	if cap(*buf) > maxPooled {
		return *buf
	}
	out := append([]byte(nil), *buf...)
	scratch.Put(buf)
	return out
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
		case p.elem.floats > 0:
			fs := flatFloats(v, n*p.elem.floats)
			if 9*len(fs) > cap(dst)-len(dst) {
				dst = slices.Grow(dst, floatsLen(fs)) // one exact growth per column, not one per doubling
			}
			for _, f := range fs {
				dst = AppendFloat(dst, f)
			}
			return dst
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

// floatsLen is the number of bytes AppendFloat writes for all of fs.
func floatsLen(fs []float64) int {
	n := len(fs)
	for _, f := range fs {
		if x := bits.ReverseBytes64(math.Float64bits(f)); x >= 0x80 {
			n += (bits.Len64(x) + 7) / 8
		}
	}
	return n
}

// flatFloats views the n float64 words behind a slice whose elements
// consist of float64s only (plan.floats > 0).
func flatFloats(v reflect.Value, n int) []float64 {
	return unsafe.Slice((*float64)(v.UnsafePointer()), n)
}

// Unmarshal decodes b into the value v points to, which is zeroed first.
// Byte-slice fields alias b; everything else is copied out.
func Unmarshal(b []byte, v any) error {
	rv := reflect.ValueOf(v)
	if rv.Kind() != reflect.Pointer || rv.IsNil() {
		return fmt.Errorf("wire: decode into %T, want a non-nil pointer", v)
	}
	rv = rv.Elem()
	p, err := planOf(rv.Type())
	if err != nil {
		return err
	}
	rv.SetZero()
	r := Reader{B: b}
	p.decode(&r, rv, true)
	return r.Err
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
		v.SetString(string(r.Bytes("string")))
	case reflect.Slice:
		if p.elem.kind == reflect.Uint8 {
			if b := r.Bytes("bytes"); len(b) > 0 {
				v.SetBytes(b)
			}
			return
		}
		n := r.length(p.elem.min, "slice length")
		if n == 0 {
			return
		}
		v.Grow(n)
		v.SetLen(n)
		if p.elem.floats > 0 {
			fs := flatFloats(v, n*p.elem.floats)
			for i := range fs {
				fs[i] = r.Float("float")
			}
			return
		}
		for i := 0; i < n && r.Err == nil; i++ {
			p.elem.decode(r, v.Index(i), false)
		}
	case reflect.Array:
		for i := 0; i < p.n && r.Err == nil; i++ {
			p.elem.decode(r, v.Index(i), false)
		}
	case reflect.Struct:
		for _, f := range p.fields {
			if r.Err != nil || tail && r.Len() == 0 {
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
