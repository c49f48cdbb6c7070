package kernel

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"
	"unsafe"

	"jungle/internal/amuse/data"
	"jungle/internal/deploy"
	"jungle/internal/vtime"
	"jungle/internal/wire"
)

type nopService struct{}

func (nopService) Dispatch(string, []byte, time.Duration) (Reply, time.Duration, error) {
	return Reply{}, 0, nil
}
func (nopService) Close() {}

func nopFactory(Config) (Service, error) { return nopService{}, nil }

func TestRegisterAndNew(t *testing.T) {
	Register("test-kind", nopFactory)
	if !Registered("test-kind") {
		t.Fatal("test-kind not registered")
	}
	svc, err := New("test-kind", Config{})
	if err != nil {
		t.Fatal(err)
	}
	if svc == nil {
		t.Fatal("nil service")
	}
}

func TestNewUnknownKindReturnsErrBadKind(t *testing.T) {
	_, err := New("no-such-kind", Config{})
	if !errors.Is(err, ErrBadKind) {
		t.Fatalf("err = %v, want ErrBadKind", err)
	}
}

func TestDuplicateRegistrationPanics(t *testing.T) {
	Register("dup-kind", nopFactory)
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("duplicate registration did not panic")
		}
		if !strings.Contains(r.(string), "dup-kind") {
			t.Fatalf("panic message %q does not name the kind", r)
		}
	}()
	Register("dup-kind", nopFactory)
}

func TestPickDevice(t *testing.T) {
	cpu := &vtime.Device{Name: "c", Kind: vtime.CPU, Gflops: 8, Cores: 4}
	gpu := &vtime.Device{Name: "g", Kind: vtime.GPU, Gflops: 100, Cores: 1}
	res := &deploy.Resource{Name: "r", CPU: cpu, GPU: gpu}
	if d, err := PickDevice(res, false); err != nil || d != cpu {
		t.Fatalf("cpu pick: %v %v", d, err)
	}
	if d, err := PickDevice(res, true); err != nil || d != gpu {
		t.Fatalf("gpu pick: %v %v", d, err)
	}
	if _, err := PickDevice(&deploy.Resource{Name: "n", CPU: cpu}, true); err == nil {
		t.Fatal("no-GPU resource accepted for GPU kernel")
	}
}

func TestDerate(t *testing.T) {
	dev := &vtime.Device{Name: "d", Gflops: 100}
	if got := Derate(dev, 0.5).Gflops; got != 50 {
		t.Fatalf("derated Gflops = %v", got)
	}
	if got := Derate(dev, 0).Gflops; got != 100 {
		t.Fatalf("zero efficiency should mean no derating, got %v", got)
	}
	if dev.Gflops != 100 {
		t.Fatal("Derate mutated its input")
	}
}

func TestRequestResponseRoundTrip(t *testing.T) {
	req := Request{ID: 42, Worker: 7, Method: "evolve", Args: []byte{1, 2, 3}, SentAt: 5 * time.Second}
	var got Request
	if err := UnmarshalRequest(AppendRequest(nil, &req), &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(req, got) {
		t.Fatalf("request round trip: %+v != %+v", got, req)
	}

	resp := Response{ID: 42, Result: []byte{9, 8}, Code: CodeWorkerFault, Err: "boom", DoneAt: time.Minute}
	var gotR Response
	frame := AppendResponse(nil, &resp)
	if err := UnmarshalResponse(frame, &gotR); err != nil {
		t.Fatal(err)
	}
	resp.frame = frame // a decoded response remembers the frame it arrived in
	if !reflect.DeepEqual(resp, gotR) {
		t.Fatalf("response round trip: %+v != %+v", gotR, resp)
	}

	// Empty args/results survive (aliased sub-slices may be non-nil).
	var gotE Response
	if err := UnmarshalResponse(AppendResponse(nil, &Response{ID: 1}), &gotE); err != nil {
		t.Fatal(err)
	}
	if gotE.ID != 1 || len(gotE.Result) != 0 || gotE.Err != "" {
		t.Fatalf("empty response round trip: %+v", gotE)
	}
}

// TestErrorCodeRoundTrip: each taxonomy code must survive the codec and
// unwrap to its sentinel with errors.Is on the decoded side — the
// structured replacement for the old string-typed resp.Err matching.
func TestErrorCodeRoundTrip(t *testing.T) {
	cases := []struct {
		code Code
		want error
	}{
		{CodeBadMethod, ErrBadMethod},
		{CodeBadMethod, ErrNoSuchMethod}, // same sentinel, both names
		{CodeBadKind, ErrBadKind},
		{CodeWorkerFault, ErrWorkerFault},
		{CodeWorkerDied, ErrWorkerDied},
		{CodeTransport, ErrTransport},
		{CodeBusy, ErrBusy},
		{Code(250), ErrTransport}, // unknown codes degrade to transport
	}
	for _, c := range cases {
		frame := AppendResponse(nil, &Response{ID: 9, Code: c.code, Err: "detail"})
		var got Response
		if err := UnmarshalResponse(frame, &got); err != nil {
			t.Fatal(err)
		}
		err := ResponseError(&got)
		if !errors.Is(err, c.want) {
			t.Fatalf("code %d: errors.Is(%v, %v) = false", c.code, err, c.want)
		}
		if !strings.Contains(err.Error(), "detail") {
			t.Fatalf("code %d: message lost: %q", c.code, err)
		}
	}
	ok := Response{ID: 9}
	if err := ResponseError(&ok); err != nil {
		t.Fatalf("CodeOK produced error %v", err)
	}
}

// TestClassifyErr: the worker-side encode half must be the inverse of
// Sentinel for the whole taxonomy, and default unknown errors to a
// worker fault (retry elsewhere will not help).
func TestClassifyErr(t *testing.T) {
	cases := []struct {
		err  error
		want Code
	}{
		{nil, CodeOK},
		{ErrNoSuchMethod, CodeBadMethod},
		{fmt.Errorf("gravity.%s: %w", "nope", ErrBadMethod), CodeBadMethod},
		{ErrBadKind, CodeBadKind},
		{ErrWorkerDied, CodeWorkerDied},
		{ErrBusy, CodeBusy},
		{ErrTransport, CodeTransport},
		{errors.New("physics exploded"), CodeWorkerFault},
	}
	for _, c := range cases {
		if got := ClassifyErr(c.err); got != c.want {
			t.Fatalf("ClassifyErr(%v) = %d, want %d", c.err, got, c.want)
		}
	}
	// WireError wraps transparently through fmt.Errorf chains.
	wrapped := fmt.Errorf("core: gravity.evolve: %w", &WireError{Code: CodeWorkerDied, Msg: "gone"})
	if !errors.Is(wrapped, ErrWorkerDied) {
		t.Fatalf("wrapped WireError does not unwrap: %v", wrapped)
	}
}

func TestUnmarshalRejectsGarbage(t *testing.T) {
	var req Request
	if err := UnmarshalRequest([]byte{0xff, 0x01}, &req); err == nil {
		t.Fatal("garbage accepted as request")
	}
	var resp Response
	if err := UnmarshalResponse([]byte{}, &resp); err == nil {
		t.Fatal("empty frame accepted as response")
	}
	frame := AppendRequest(nil, &Request{Method: "m", Args: []byte{1, 2, 3}})
	if err := UnmarshalRequest(frame[:len(frame)-1], &req); err == nil {
		t.Fatal("truncated frame accepted")
	}
	if _, err := UnmarshalState([]byte{0x00}); err == nil {
		t.Fatal("garbage accepted as state")
	}
	// A corrupt header claiming a huge key column must error out, not
	// attempt a multi-gigabyte allocation.
	huge := []byte{tagState}
	huge = wire.AppendU32(huge, 1<<31-1)
	huge = append(huge, 1) // keyflag
	if _, err := UnmarshalState(huge); err == nil {
		t.Fatal("truncated huge key column accepted")
	}
}

func TestGatherScatterIntColumn(t *testing.T) {
	p := data.NewParticles(3)
	p.StellarType[0], p.StellarType[1], p.StellarType[2] = 1, 4, 14
	st, err := GatherState(p, data.AttrStellarType)
	if err != nil {
		t.Fatal(err)
	}
	b, err := MarshalState(st)
	if err != nil {
		t.Fatal(err)
	}
	wire, err := UnmarshalState(b)
	if err != nil {
		t.Fatal(err)
	}
	q := data.NewParticles(3)
	if err := ScatterState(q, wire); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(p.StellarType, q.StellarType) {
		t.Fatalf("stellar_type round trip: %v != %v", q.StellarType, p.StellarType)
	}
}

func TestStateRoundTrip(t *testing.T) {
	st := NewState(3)
	st.Key = []uint64{11, 22, 33}
	st.AddFloat(data.AttrMass, []float64{1, 2, math.Pi})
	st.AddVec(data.AttrPos, []data.Vec3{{1, 2, 3}, {4, 5, 6}, {7, 8, 9}})
	st.AddVec(data.AttrVel, []data.Vec3{{-1, 0, 1}, {0, 0, 0}, {1e-300, 1e300, -0.0}})

	b, err := MarshalState(st)
	if err != nil {
		t.Fatal(err)
	}
	got, err := UnmarshalState(b)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(st, got) {
		t.Fatalf("state round trip:\n%+v\n!=\n%+v", got, st)
	}
}

// TestStateAttrsOutsideTheVocabulary: a state frame and a state request
// carry any attribute name, not only data's: one outside the vocabulary
// round-trips as a copy, one inside decodes as data's own string.
func TestStateAttrsOutsideTheVocabulary(t *testing.T) {
	st := NewState(2)
	st.AddFloat("spin", []float64{0.5, -0.5})
	st.AddFloat(data.AttrMass, []float64{1, 2})
	st.AddVec("magnetic_moment", []data.Vec3{{1, 0, 0}, {0, 0, 1}})
	b, err := MarshalState(st)
	if err != nil {
		t.Fatal(err)
	}
	got, err := UnmarshalState(b)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(st, got) {
		t.Fatalf("state round trip:\n%+v\n!=\n%+v", got, st)
	}
	if unsafe.StringData(got.FloatAttrs[1]) != unsafe.StringData(data.AttrMass) {
		t.Error("a state frame's mass column is named by a copy, not by data.AttrMass")
	}
	q := StateRequest{Attrs: []string{"spin", data.AttrPos}}
	gq, err := UnmarshalStateRequest(AppendStateRequest(nil, &q))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(&q, gq) {
		t.Fatalf("state request round trip: %+v != %+v", gq, q)
	}
	if unsafe.StringData(gq.Attrs[1]) != unsafe.StringData(data.AttrPos) {
		t.Error("a state request's position is named by a copy, not by data.AttrPos")
	}
}

func TestStateRejectsRaggedColumns(t *testing.T) {
	st := NewState(3)
	st.AddFloat(data.AttrMass, []float64{1, 2})
	if _, err := MarshalState(st); err == nil {
		t.Fatal("ragged column accepted")
	}
}

func TestStateRequestRoundTrip(t *testing.T) {
	q := StateRequest{Attrs: []string{data.AttrMass, data.AttrPos}}
	got, err := UnmarshalStateRequest(AppendStateRequest(nil, &q))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(&q, got) {
		t.Fatalf("state request round trip: %+v != %+v", got, q)
	}
}

func TestGatherScatterState(t *testing.T) {
	p := data.NewParticles(4)
	for i := 0; i < 4; i++ {
		p.Mass[i] = float64(i + 1)
		p.Pos[i] = data.Vec3{float64(i), 0, 1}
		p.Vel[i] = data.Vec3{0, float64(i), 2}
	}
	st, err := GatherState(p) // default mass/pos/vel
	if err != nil {
		t.Fatal(err)
	}
	b, err := MarshalState(st)
	if err != nil {
		t.Fatal(err)
	}
	wire, err := UnmarshalState(b)
	if err != nil {
		t.Fatal(err)
	}
	q := data.NewParticles(4)
	if err := ScatterState(q, wire); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(p.Mass, q.Mass) || !reflect.DeepEqual(p.Pos, q.Pos) || !reflect.DeepEqual(p.Vel, q.Vel) {
		t.Fatal("gather→marshal→unmarshal→scatter lost data")
	}
	if err := ScatterState(data.NewParticles(3), wire); err == nil {
		t.Fatal("length mismatch accepted")
	}
	if _, err := GatherState(p, "no-such-attr"); err == nil {
		t.Fatal("unknown attribute accepted")
	}
}
