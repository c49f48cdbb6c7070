// Package wiretest checks that a payload type keeps the properties the
// jungle relies on when it crosses internal/wire's struct codec. Every
// package that defines wire payloads runs Check over a registry of their
// zero values, so the properties hold for each type and not only for the
// codec's own test types.
//
// It is imported by tests only (make gob-check enforces that): it holds
// the one remaining use of encoding/gob near the message paths, as the
// size reference the codec is compared against.
package wiretest

import (
	"bytes"
	"encoding/gob"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"math"
	"math/rand"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"jungle/internal/wire"
)

// Class names the kind of input a payload is filled with.
type Class int

const (
	Zero   Class = iota // the zero value: what gob's field omission made free
	Round               // 0, 1, -0.5, small ints: what a control plane mostly sends
	Random              // any bit pattern: NaNs, -0, subnormals, full-range ints
)

var classes = []struct {
	name  string
	class Class
}{{"zero", Zero}, {"round", Round}, {"random", Random}}

// Fill returns a pointer to a new value of zero's type filled for class.
func Fill(zero any, class Class, seed int64) any {
	p := reflect.New(reflect.TypeOf(zero))
	if class != Zero {
		f := filler{class: class, rng: rand.New(rand.NewSource(seed))}
		f.fill(p.Elem())
	}
	return p.Interface()
}

type filler struct {
	class Class
	rng   *rand.Rand
	n     int // Round: position in the value cycles
}

var (
	roundFloats = []float64{0, 1, -0.5, 2}
	roundInts   = []int64{0, 1, 2, 3}
)

func (f *filler) fill(v reflect.Value) {
	f.n++
	random := f.class == Random
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(f.n%2 == 0)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		x := roundInts[f.n%len(roundInts)]
		if random {
			x = int64(f.rng.Uint64()) >> (64 - v.Type().Bits())
		}
		v.SetInt(x)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		x := uint64(roundInts[f.n%len(roundInts)])
		if random {
			x = f.rng.Uint64() >> (64 - v.Type().Bits())
		}
		v.SetUint(x)
	case reflect.Float32:
		x := roundFloats[f.n%len(roundFloats)]
		if random {
			x = float64(math.Float32frombits(f.rng.Uint32()))
		}
		v.SetFloat(x)
	case reflect.Float64:
		x := roundFloats[f.n%len(roundFloats)]
		if random {
			x = math.Float64frombits(f.rng.Uint64())
		}
		v.SetFloat(x)
	case reflect.String:
		s := []string{"", "a", "das4-vu.fe:20002"}[f.n%3]
		if random {
			b := make([]byte, f.rng.Intn(40))
			f.rng.Read(b)
			s = string(b)
		}
		v.SetString(s)
	case reflect.Slice:
		n := f.n % 4
		if random {
			n = f.rng.Intn(6)
		}
		if n == 0 {
			return // nil; Check's own case covers empty-but-not-nil
		}
		v.Set(reflect.MakeSlice(v.Type(), n, n))
		for i := 0; i < n; i++ {
			f.fill(v.Index(i))
		}
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			f.fill(v.Index(i))
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if v.Type().Field(i).IsExported() {
				f.fill(v.Field(i))
			}
		}
	}
}

// Same reports whether two values are the same payload: floats compare by
// their bits (NaN payloads and -0 included), nil and empty slices are one
// value, and unexported fields do not count — they never cross.
func Same(a, b reflect.Value) bool {
	switch a.Kind() {
	case reflect.Float32, reflect.Float64:
		return math.Float64bits(a.Float()) == math.Float64bits(b.Float())
	case reflect.Slice, reflect.Array:
		if a.Len() != b.Len() {
			return false
		}
		for i := 0; i < a.Len(); i++ {
			if !Same(a.Index(i), b.Index(i)) {
				return false
			}
		}
		return true
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if a.Type().Field(i).IsExported() && !Same(a.Field(i), b.Field(i)) {
				return false
			}
		}
		return true
	case reflect.Pointer:
		return Same(a.Elem(), b.Elem())
	default:
		return a.Interface() == b.Interface()
	}
}

// GobSize is what v cost under the codec this one replaced: a fresh gob
// encoder per message, type descriptors and all. Virtual time is bytes
// over bandwidth, so an encoding longer than this would raise virtual
// numbers the benchmarks gate.
func GobSize(t *testing.T, v any) int {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatalf("gob reference for %T: %v", v, err)
	}
	return buf.Len()
}

// Check runs the payload properties on zero's type, for each input class:
//
//   - a round trip returns the same payload, bit for bit;
//   - input cut at any offset never panics, and either fails or decodes to
//     the fields before the cut with every later field zero;
//   - the encoding is no longer than GobSize.
func Check(t *testing.T, zero any) {
	t.Helper()
	typ := reflect.TypeOf(zero)
	for _, c := range classes {
		seeds := 1
		if c.class == Random {
			seeds = 8
		}
		for seed := 0; seed < seeds; seed++ {
			v := Fill(zero, c.class, int64(seed))
			enc := wire.Marshal(v)
			back := reflect.New(typ)
			if err := wire.Unmarshal(enc, back.Interface()); err != nil {
				t.Errorf("%v %s/%d: decode: %v", typ, c.name, seed, err)
				continue
			}
			if !Same(reflect.ValueOf(v), back) {
				t.Errorf("%v %s/%d: round trip changed the value\n sent %+v\n got  %+v", typ, c.name, seed, v, back.Interface())
			}
			for cut := 0; cut < len(enc); cut++ {
				short := reflect.New(typ)
				if wire.Unmarshal(enc[:cut:cut], short.Interface()) != nil {
					continue
				}
				re := wire.Marshal(short.Interface())
				if len(re) < cut || !bytes.Equal(re[:cut], enc[:cut]) || len(bytes.Trim(re[cut:], "\x00")) != 0 {
					t.Errorf("%v %s/%d: input cut at %d/%d decoded to %+v", typ, c.name, seed, cut, len(enc), short.Interface())
				}
			}
			if ref := GobSize(t, v); len(enc) > ref {
				t.Errorf("%v %s/%d: %d bytes on the wire, gob took %d", typ, c.name, seed, len(enc), ref)
			}
		}
	}
}

// CheckRegistry fails for every struct type declared in the non-test files
// of the package in the current directory whose name matches payloadName
// and whose zero value is missing from registry — so a payload added to a
// package cannot be left out of its Check table. Tests only, like the package.
func CheckRegistry(t *testing.T, payloadName *regexp.Regexp, registry []any) {
	t.Helper()
	listed := map[string]bool{}
	for _, zero := range registry {
		listed[reflect.TypeOf(zero).Name()] = true
	}
	pkgs, err := parser.ParseDir(token.NewFileSet(), ".", func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				ts, ok := n.(*ast.TypeSpec)
				if !ok {
					return true
				}
				if _, isStruct := ts.Type.(*ast.StructType); isStruct && payloadName.MatchString(ts.Name.Name) && !listed[ts.Name.Name] {
					t.Errorf("payload type %s is not in the registry", ts.Name.Name)
				}
				return false
			})
		}
	}
}
