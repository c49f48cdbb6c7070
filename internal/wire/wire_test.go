package wire_test

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"
	"unsafe"

	"jungle/internal/wire"
	"jungle/internal/wiretest"
)

type vec [3]float64

type inner struct {
	Index int
	Loss  float64
	SN    bool
}

// everything has a field of every kind the codec carries.
type everything struct {
	B      bool
	I      int
	I8     int8
	I16    int16
	I32    int32
	I64    int64
	U      uint
	U8     uint8
	U16    uint16
	U32    uint32
	U64    uint64
	F32    float32
	F64    float64
	S      string
	Raw    []byte
	Fs     []float64
	Vs     []vec
	Ss     []string
	Is     []int
	Keys   []uint64
	V      vec
	In     inner
	Ins    []inner
	D      time.Duration
	hidden int
}

func TestScalarForms(t *testing.T) {
	for _, c := range []struct {
		f    float64
		size int
	}{
		{0, 1}, {1, 3}, {-0.5, 3}, {2, 1}, {0.1, 9}, {math.Pi, 9},
		{math.Copysign(0, -1), 2}, {math.SmallestNonzeroFloat64, 9}, {math.Inf(-1), 3},
		{math.Float64frombits(0x7ff8000000000001), 9}, {math.Float64frombits(0xfff0dead0000beef), 9},
	} {
		b := wire.AppendFloat(nil, c.f)
		if len(b) != c.size {
			t.Errorf("float %v (%#x): %d bytes, want %d", c.f, math.Float64bits(c.f), len(b), c.size)
		}
		r := wire.Reader{B: b}
		if got := r.Float("f"); math.Float64bits(got) != math.Float64bits(c.f) || r.Err != nil || r.Len() != 0 {
			t.Errorf("float %#x came back as %#x (err %v, %d left)", math.Float64bits(c.f), math.Float64bits(got), r.Err, r.Len())
		}
	}
	for _, x := range []uint64{0, 1, 127, 128, 255, 256, 1<<16 - 1, 1 << 16, 1<<56 - 1, 1 << 56, 1 << 63, math.MaxUint64} {
		b := wire.AppendUint(nil, x)
		r := wire.Reader{B: b}
		if got := r.Uint("u"); got != x || r.Err != nil || r.Len() != 0 {
			t.Errorf("uint %d came back as %d (err %v)", x, got, r.Err)
		}
		if n := wire.UintLen(x); n != len(b) {
			t.Errorf("UintLen(%d) = %d, AppendUint wrote %d bytes", x, n, len(b))
		}
	}
	for _, x := range []int64{0, 1, -1, 63, -64, 64, -65, math.MaxInt64, math.MinInt64} {
		b := wire.AppendInt(nil, x)
		r := wire.Reader{B: b}
		if got := r.Int("i"); got != x || r.Err != nil || r.Len() != 0 {
			t.Errorf("int %d came back as %d (err %v)", x, got, r.Err)
		}
		if n := wire.IntLen(x); n != len(b) {
			t.Errorf("IntLen(%d) = %d, AppendInt wrote %d bytes", x, n, len(b))
		}
	}
	if n := len(wire.AppendInt(nil, -64)); n != 1 {
		t.Errorf("int -64 takes %d bytes, want 1", n)
	}
}

// TestColumnLoopsMatchPerValueForms: a float, vector or key column, which
// the struct codec encodes and decodes in one loop over its words, is on the
// wire what AppendFloat / AppendUint write value by value — NaN payloads,
// infinities, -0, the smallest subnormal, round and arbitrary floats, the
// floats and keys whose encoding is one byte (0 and 2.0; 0 and 127), keys
// either side of every length boundary — at frame offsets 0–7, through
// Append and through MarshalBehind (sized exactly above 64 KiB), and it
// decodes to the same bits. Every proper prefix of a column fails to decode,
// and none panics; the empty prefix is the append-only rule's field
// boundary, a nil column.
func TestColumnLoopsMatchPerValueForms(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	floats := []float64{math.Float64frombits(0x7ff8_dead_beef_0001), math.Float64frombits(0xfff0_0000_0000_0001),
		math.Inf(1), math.Inf(-1), math.Copysign(0, -1), math.SmallestNonzeroFloat64, 0, 2, 0.5, 1,
		math.Float64frombits(0x3ff0_0000_0000_0100)} // low mantissa byte zero, the next one not
	keys := []uint64{0, 127, 128, 1<<56 - 1, 1 << 56, 1 << 63, math.MaxUint64}
	for range 8 {
		floats = append(floats, rng.NormFloat64()*math.Exp(20*rng.NormFloat64()))
		keys = append(keys, rng.Uint64()>>rng.Intn(64))
	}
	appendVec := func(dst []byte, v vec) []byte {
		return wire.AppendFloat(wire.AppendFloat(wire.AppendFloat(dst, v[0]), v[1]), v[2])
	}
	for _, n := range []int{0, 1, 2, 1000, 10_000} {
		for off := range 8 {
			fs, vs, ks := make([]float64, n), make([]vec, n), make([]uint64, n)
			for i := range n {
				f := func(j int) float64 { return floats[(j+off)%len(floats)] }
				fs[i], vs[i], ks[i] = f(i), vec{f(i + 1), f(3 * i), f(5 * i)}, keys[(i+off)%len(keys)]
			}
			// Every prefix where that is cheap: a column of 1 000 is cut at
			// offset 0 only, and one of 10 000 not at all.
			prefixes := n <= 2 || n == 1000 && off == 0
			checkColumn(t, off, fs, wire.AppendFloat, prefixes)
			checkColumn(t, off, vs, appendVec, prefixes)
			checkColumn(t, off, ks, wire.AppendUint, prefixes)
		}
	}
}

// TestFloatsView: the view is the bytes AppendFloats writes, and on a
// little-endian host it is the floats' own memory.
func TestFloatsView(t *testing.T) {
	xs := []float64{math.Float64frombits(0x7ff8_dead_beef_0001), math.Inf(-1), math.Copysign(0, -1), 0.5}
	v := wire.FloatsView(xs)
	if want := wire.AppendFloats(nil, xs); !bytes.Equal(v, want) {
		t.Fatalf("view %x, encoding %x", v, want)
	}
	if binary.NativeEndian.Uint16([]byte{1, 0}) == 1 && unsafe.Pointer(&v[0]) != unsafe.Pointer(&xs[0]) {
		t.Fatal("a little-endian view copied the floats")
	}
	if len(wire.FloatsView(nil)) != 0 {
		t.Fatal("a view of no floats has bytes")
	}
}

// checkColumn holds col, encoded at frame offset off, to the per-value
// encoding one writes.
func checkColumn[E any](t *testing.T, off int, col []E, one func([]byte, E) []byte, prefixes bool) {
	t.Helper()
	oracle := func(col []E) []byte {
		b := wire.AppendUint(make([]byte, off), uint64(len(col)))
		for _, e := range col {
			b = one(b, e)
		}
		return b
	}
	want := oracle(col)
	v := struct{ X []E }{col}
	for how, got := range map[string][]byte{"Append": wire.Append(make([]byte, off), &v), "MarshalBehind": wire.MarshalBehind(off, &v)} {
		if !bytes.Equal(got, want) {
			d := 0
			for d < min(len(got), len(want)) && got[d] == want[d] {
				d++
			}
			t.Fatalf("%T column of %d at offset %d, %s: %d bytes, the per-value forms %d; first difference at %d",
				col, len(col), off, how, len(got), len(want), d)
		}
	}
	var back struct{ X []E }
	if err := wire.Unmarshal(want[off:], &back); err != nil || !bytes.Equal(oracle(back.X), want) {
		t.Fatalf("%T column of %d at offset %d: decoded to other bits (%v)", col, len(col), off, err)
	}
	for cut := off + 1; prefixes && cut < len(want); cut++ {
		if err := wire.Unmarshal(want[off:cut], &back); err == nil {
			t.Fatalf("%T column of %d: the first %d of its %d bytes decode", col, len(col), cut-off, len(want)-off)
		}
	}
}

func TestBadLengthByte(t *testing.T) {
	for _, b := range [][]byte{{0x80}, {0xF7, 1, 2, 3, 4, 5, 6, 7, 8, 9}, {0xFE, 1}, {}} {
		r := wire.Reader{B: b}
		if r.Uint("u"); r.Err == nil {
			t.Errorf("uint from % x: no error", b)
		}
	}
}

// TestString16Truncates: a string of 64 KiB or more used to write a
// wrapped 16-bit length and then all of its bytes, desynchronising every
// field after it.
func TestString16Truncates(t *testing.T) {
	long := strings.Repeat("x", 70000)
	b := wire.AppendU32(wire.AppendString16(nil, long), 0xfeedface)
	r := wire.Reader{B: b}
	s := string(r.Bytes16("s"))
	marker := r.U32("marker")
	if r.Err != nil || len(s) != math.MaxUint16 || marker != 0xfeedface || r.Len() != 0 {
		t.Fatalf("got %d-byte string, marker %#x, %d bytes left, err %v", len(s), marker, r.Len(), r.Err)
	}
}

func TestFixedWidthReader(t *testing.T) {
	b := wire.AppendU16(nil, 0xbeef)
	b = wire.AppendU64(b, 1<<63|5)
	b = wire.AppendBytes32(b, []byte("payload"))
	b = wire.AppendFloats(b, []float64{1.5, math.Copysign(0, -1)})
	b = wire.AppendVecs(b, []vec{{1, 2, 3}})
	for cut := 0; cut < len(b); cut++ {
		r := wire.Reader{B: b[:cut]}
		r.U16("a")
		r.U64("b")
		r.Bytes32("c")
		r.Column(2, 8, "d")
		r.Column(1, 24, "e")
		if r.Err == nil {
			t.Fatalf("frame cut at %d/%d read without error", cut, len(b))
		}
	}
	r := wire.Reader{B: b}
	if r.U16("a") != 0xbeef || r.U64("b") != 1<<63|5 || string(r.Bytes32("c")) != "payload" {
		t.Fatal("fixed-width fields came back changed")
	}
	fs, vs := make([]float64, 2), make([]vec, 1)
	wire.DecodeFloats(fs, r.Column(2, 8, "d"))
	wire.DecodeVecs(vs, r.Column(1, 24, "e"))
	if r.Err != nil || fs[0] != 1.5 || !math.Signbit(fs[1]) || vs[0] != (vec{1, 2, 3}) || r.Len() != 0 {
		t.Fatalf("floats %v vecs %v err %v", fs, vs, r.Err)
	}
	// A count the frame cannot hold fails before it sizes an allocation.
	r = wire.Reader{B: b}
	if r.Column(1<<40, 8, "huge"); r.Err == nil {
		t.Fatal("huge float count accepted")
	}
}

// TestOwnershipColumns: a column decodes, word by word, to the IEEE bits its
// bytes spell little-endian, from every offset of a larger buffer (a column
// in a frame sits wherever its name leaves it), whether into the caller's
// slice (Decode*) or into one of its own (NewColumn). A column of its own is
// its own memory, aligned for its element: scribbling over the source leaves
// it as it was, and it has no room past its end, so an append moves it.
// Under -race, checkptr rejects a view that overruns its allocation (it
// checks alignment only for types that hold pointers, so the test does).
func TestOwnershipColumns(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 1, 2, 1000} {
		for off := range 8 {
			buf := make([]byte, off+24*n+8)
			rng.Read(buf)
			col := buf[off : off+24*n]
			want := make([]uint64, 3*n)
			for i := range want {
				want[i] = math.Float64bits(math.Float64frombits(binary.LittleEndian.Uint64(col[8*i:])))
			}
			fs, vs, ks := make([]float64, n), make([]vec, n), make([]uint64, n)
			wire.DecodeFloats(fs, col)
			wire.DecodeVecs(vs, col)
			wire.DecodeU64s(ks, col)
			ownF, ownV, ownK := wire.NewColumn[float64](col[:8*n]), wire.NewColumn[vec](col), wire.NewColumn[uint64](col[:8*n])
			clear(buf)
			if n > 0 && (uintptr(unsafe.Pointer(&ownF[0]))|uintptr(unsafe.Pointer(&ownV[0]))|uintptr(unsafe.Pointer(&ownK[0])))%8 != 0 {
				t.Fatalf("n %d, offset %d: a column of its own is not 8-byte aligned", n, off)
			}
			if len(ownF) != n || len(ownV) != n || len(ownK) != n || cap(ownF) != n || cap(ownV) != n || cap(ownK) != n {
				t.Fatalf("n %d: columns of their own have len/cap %d/%d, %d/%d, %d/%d",
					n, len(ownF), cap(ownF), len(ownV), cap(ownV), len(ownK), cap(ownK))
			}
			ownF, ownK = append(ownF, 1), append(ownK, 1)
			for i := range n {
				w := want[i]
				if math.Float64bits(fs[i]) != w || math.Float64bits(ownF[i]) != w || ks[i] != w || ownK[i] != w {
					t.Fatalf("n %d, offset %d, word %d: want %#x; DecodeFloats %#x, NewColumn %#x, DecodeU64s %#x, NewColumn %#x",
						n, off, i, w, math.Float64bits(fs[i]), math.Float64bits(ownF[i]), ks[i], ownK[i])
				}
				for k := range 3 {
					w := want[3*i+k]
					if math.Float64bits(vs[i][k]) != w || math.Float64bits(ownV[i][k]) != w {
						t.Fatalf("n %d, offset %d, vector %d[%d]: want %#x; DecodeVecs %#x, NewColumn %#x",
							n, off, i, k, w, math.Float64bits(vs[i][k]), math.Float64bits(ownV[i][k]))
					}
				}
			}
			if ownF[n] != 1 || ownK[n] != 1 {
				t.Fatalf("n %d: appended values read back %v, %v", n, ownF[n], ownK[n])
			}
		}
	}
	if c := wire.NewColumn[float64](nil); c == nil || len(c) != 0 {
		t.Errorf("an empty column decodes to %#v, want empty and non-nil", c)
	}
}

func TestEveryKind(t *testing.T) {
	wiretest.Check(t, everything{})
	wiretest.Check(t, struct{}{})
	wiretest.Check(t, inner{})
}

func TestNilAndEmptySlices(t *testing.T) {
	in := everything{Raw: []byte{}, Fs: []float64{}, Vs: []vec{}, Ss: []string{}, Ins: []inner{}}
	enc := wire.Marshal(in)
	if !bytes.Equal(enc, wire.Marshal(everything{})) {
		t.Fatal("empty slices encode differently from nil ones")
	}
	var out everything
	if err := wire.Unmarshal(enc, &out); err != nil {
		t.Fatal(err)
	}
	if out.Raw != nil || out.Fs != nil || out.Vs != nil || out.Ss != nil || out.Ins != nil {
		t.Fatalf("empty slices decoded non-nil: %+v", out)
	}
}

// TestMarshalSizesExactly: Marshal's size pass agrees with the encoder on
// every kind, at either sign and at round and arbitrary values, so every
// message is one allocation whose capacity is its length.
func TestMarshalSizesExactly(t *testing.T) {
	for seed := int64(0); seed < 16; seed++ {
		for _, fill := range []wiretest.Class{wiretest.Random, wiretest.Round} {
			v := wiretest.Fill(everything{}, fill, seed)
			enc := wire.Marshal(v)
			if cap(enc) != len(enc) || !bytes.Equal(enc, wire.Append(nil, v)) {
				t.Fatalf("seed %d: Marshal gave %d bytes in a %d-byte buffer, Append %d", seed, len(enc), cap(enc), len(wire.Append(nil, v)))
			}
		}
	}
}

func TestUnexportedFieldsStayHome(t *testing.T) {
	a, b := everything{I: 7, hidden: 1}, everything{I: 7, hidden: 2}
	if !bytes.Equal(wire.Marshal(a), wire.Marshal(&b)) {
		t.Fatal("an unexported field reached the wire (or value and pointer encode differently)")
	}
}

func TestUnmarshalZeroesDestination(t *testing.T) {
	out := everything{I: 9, S: "stale", Fs: []float64{1, 2, 3}, hidden: 4}
	if err := wire.Unmarshal(wire.Marshal(everything{U: 1}), &out); err != nil {
		t.Fatal(err)
	}
	if out.I != 0 || out.S != "" || out.Fs != nil || out.U != 1 {
		t.Fatalf("stale destination fields survived: %+v", out)
	}
}

// TestUnmarshalKeepsEqualStrings: a string field that already holds the
// bytes decoded keeps its value and costs no allocation; one that holds
// something else is replaced, and a string taken from it before keeps what
// it read.
func TestUnmarshalKeepsEqualStrings(t *testing.T) {
	type names struct {
		Hub   string
		Route []string
	}
	enc := wire.Marshal(names{Hub: "das4-vu.fe", Route: []string{"das4-vu.fe", "lgm.fe"}})
	var out names
	if err := wire.Unmarshal(enc, &out); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		if err := wire.Unmarshal(enc, &out); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("decoding equal strings again: %v allocations, want 0", allocs)
	}
	kept, hop := out.Hub, out.Route[1]
	if err := wire.Unmarshal(wire.Marshal(names{Hub: "das4-uva.fe", Route: []string{"das4-vu.fe", "tud.fe"}}), &out); err != nil {
		t.Fatal(err)
	}
	if out.Hub != "das4-uva.fe" || out.Route[1] != "tud.fe" {
		t.Fatalf("decoded %+v, want the second message's names", out)
	}
	if kept != "das4-vu.fe" || hop != "lgm.fe" {
		t.Fatalf("strings read before the second decode changed to %q, %q", kept, hop)
	}
}

// TestNamesDecodeWhatUnmarshalDecodes: decoding a run of messages into one
// kept value through a Names ring gives, message by message, what
// Unmarshal gives into a fresh value; and a name that comes back after an
// empty one is the ring's, where Unmarshal copies it again.
func TestNamesDecodeWhatUnmarshalDecodes(t *testing.T) {
	var msgs [][]byte
	for seed := int64(0); seed < 8; seed++ {
		msgs = append(msgs, wire.Marshal(wiretest.Fill(everything{}, wiretest.Random, seed)),
			wire.Marshal(everything{}), wire.Marshal(everything{S: "lgm", Ss: []string{"lgm", ""}}))
	}
	var names wire.Names
	var kept everything
	for i, b := range msgs {
		var want everything
		if err := wire.Unmarshal(b, &want); err != nil {
			t.Fatal(err)
		}
		if err := names.Unmarshal(b, &kept); err != nil {
			t.Fatal(err)
		}
		if !wiretest.Same(reflect.ValueOf(kept), reflect.ValueOf(want)) {
			t.Fatalf("message %d through the ring:\n %+v\nwant\n %+v", i, kept, want)
		}
	}

	type named struct{ Hub string }
	set, empty := wire.Marshal(named{Hub: "das4-vu.fe"}), wire.Marshal(named{})
	for _, c := range []struct {
		names *wire.Names
		want  float64
	}{{nil, 1}, {new(wire.Names), 0}} {
		var out named
		if allocs := testing.AllocsPerRun(100, func() {
			c.names.Unmarshal(set, &out)
			c.names.Unmarshal(empty, &out)
		}); allocs != c.want {
			t.Errorf("a name set, then empty (ring %v): %v allocations, want %v", c.names != nil, allocs, c.want)
		}
	}
}

func TestByteSlicesAliasInput(t *testing.T) {
	enc := wire.Marshal(everything{Raw: []byte("abc")})
	var out everything
	if err := wire.Unmarshal(enc, &out); err != nil {
		t.Fatal(err)
	}
	i := bytes.Index(enc, []byte("abc"))
	enc[i] = 'X'
	if string(out.Raw) != "Xbc" {
		t.Fatalf("Raw = %q: does not alias the input", out.Raw)
	}
	if cap(out.Raw) != 3 {
		t.Fatalf("Raw has cap %d: an append would write into the frame", cap(out.Raw))
	}
}

// The append-only rule: either side of a link may be the older one.
func TestAppendOnlyCompatibility(t *testing.T) {
	type v1 struct {
		ID   uint64
		Peer string
	}
	type v2 struct {
		ID      uint64
		Peer    string
		Stripes int
		Codec   byte
		Attrs   []string
		In      inner
	}
	var up v2
	if err := wire.Unmarshal(wire.Marshal(v1{ID: 7, Peer: "p"}), &up); err != nil {
		t.Fatalf("new decoder, old sender: %v", err)
	}
	if !reflect.DeepEqual(up, v2{ID: 7, Peer: "p"}) {
		t.Fatalf("new decoder, old sender: %+v", up)
	}
	var down v1
	if err := wire.Unmarshal(wire.Marshal(v2{ID: 7, Peer: "p", Stripes: 4, Attrs: []string{"a"}}), &down); err != nil {
		t.Fatalf("old decoder, new sender: %v", err)
	}
	if down != (v1{ID: 7, Peer: "p"}) {
		t.Fatalf("old decoder, new sender: %+v", down)
	}
	// The input may also end inside a trailing nested struct, at one of
	// its field boundaries...
	enc := wire.Marshal(v2{ID: 1, In: inner{Index: 5, Loss: 1}})
	var part v2
	if err := wire.Unmarshal(enc[:len(enc)-4], &part); err != nil || part.In != (inner{Index: 5}) {
		t.Fatalf("input ending inside the trailing struct: %+v, %v", part, err)
	}
	// ...but not between the elements of a slice: the count promised more.
	type list struct{ Ins []inner }
	enc = wire.Marshal(list{Ins: []inner{{1, 1, true}, {2, 2, true}}})
	for cut := 1; cut < len(enc); cut++ {
		if err := wire.Unmarshal(enc[:cut], new(list)); err == nil {
			t.Fatalf("slice cut at %d/%d decoded", cut, len(enc))
		}
	}
}

func TestTypesWithoutWireForm(t *testing.T) {
	type node struct{ Kids []node }
	for _, v := range []any{
		struct{ M map[string]int }{}, struct{ P *int }{}, struct{ I any }{},
		struct{ E []struct{} }{}, node{}, struct{ C complex128 }{},
	} {
		p := reflect.New(reflect.TypeOf(v))
		if err := wire.Unmarshal(nil, p.Interface()); err == nil {
			t.Errorf("%T: decode succeeded", v)
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%T: encode did not panic", v)
				}
			}()
			wire.Marshal(v)
		}()
	}
	if err := wire.Unmarshal(nil, everything{}); err == nil {
		t.Error("decode into a non-pointer succeeded")
	}
	if err := wire.Unmarshal(nil, (*everything)(nil)); err == nil {
		t.Error("decode into a nil pointer succeeded")
	}
}

func TestForgedLengths(t *testing.T) {
	type lists struct {
		Fs  []float64
		S   string
		Raw []byte
		Ins []inner
	}
	huge := wire.AppendUint(nil, 1<<40)
	for name, enc := range map[string][]byte{
		"floats": huge,
		"string": append([]byte{0}, huge...),
		"bytes":  append([]byte{0, 0}, huge...),
		"struct": append([]byte{0, 0, 0}, huge...),
		// 40 elements of at least 3 bytes each cannot fit in 100 bytes.
		"min size": append([]byte{0, 0, 0, 40}, make([]byte, 100)...),
	} {
		// A length of 2^40 that sized an allocation would not return at all.
		if err := wire.Unmarshal(enc, new(lists)); err == nil {
			t.Errorf("%s: forged length accepted", name)
		}
	}
	var small struct{ I8 int8 }
	if err := wire.Unmarshal(wire.AppendInt(nil, 1000), &small); err == nil {
		t.Error("1000 fitted an int8")
	}
	var usmall struct{ U8 uint8 }
	if err := wire.Unmarshal(wire.AppendUint(nil, 256), &usmall); err == nil {
		t.Error("256 fitted a uint8")
	}
}

// footprint is the memory a decoded value holds beyond its own struct.
func footprint(v reflect.Value) int {
	switch v.Kind() {
	case reflect.String:
		return v.Len()
	case reflect.Slice:
		n := v.Len() * int(v.Type().Elem().Size())
		for i := 0; i < v.Len(); i++ {
			n += footprint(v.Index(i))
		}
		return n
	case reflect.Array:
		n := 0
		for i := 0; i < v.Len(); i++ {
			n += footprint(v.Index(i))
		}
		return n
	case reflect.Struct:
		n := 0
		for i := 0; i < v.NumField(); i++ {
			n += footprint(v.Field(i))
		}
		return n
	}
	return 0
}

// FuzzDecode: arbitrary bytes never panic the decoder and never make it
// hold more than a fixed multiple of the input (the widest element is a
// 16-byte string header behind a 1-byte length), and whatever decodes
// re-encodes to something that decodes to the same value.
func FuzzDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add(wire.Marshal(everything{}))
	for seed := int64(0); seed < 4; seed++ {
		f.Add(wire.Marshal(wiretest.Fill(everything{}, wiretest.Random, seed)))
		f.Add(wire.Marshal(wiretest.Fill(everything{}, wiretest.Round, seed)))
	}
	f.Add(wire.AppendUint(nil, math.MaxUint64))
	f.Fuzz(func(t *testing.T, b []byte) {
		var v everything
		if err := wire.Unmarshal(b, &v); err != nil {
			return
		}
		if got, limit := footprint(reflect.ValueOf(v)), 32*len(b); got > limit {
			t.Fatalf("%d input bytes decoded into %d bytes of slices and strings", len(b), got)
		}
		var again everything
		if err := wire.Unmarshal(wire.Marshal(v), &again); err != nil {
			t.Fatalf("re-encoded value does not decode: %v", err)
		}
		if !wiretest.Same(reflect.ValueOf(v), reflect.ValueOf(again)) {
			t.Fatalf("re-encoding changed the value:\n %+v\n %+v", v, again)
		}
	})
}
