package kernel

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"jungle/internal/amuse/data"
)

// bulkPayloads are the state payloads the four kinds put on the wire, at n
// particles: gravity (mass, position, velocity), hydro (those plus u and h),
// the agent colony and the SSE observables, each with and without keys.
func bulkPayloads(n int) map[string]*StatePayload {
	floats := func(seed float64) []float64 {
		col := make([]float64, n)
		for i := range col {
			col[i] = math.Sin(seed + float64(i))
		}
		return col
	}
	vecs := func(seed float64) []data.Vec3 {
		col := make([]data.Vec3, n)
		for i := range col {
			col[i] = data.Vec3{math.Cos(seed + float64(i)), -float64(i), math.Copysign(0, -1)}
		}
		return col
	}
	keys := make([]uint64, n)
	for i := range keys {
		keys[i] = 1<<63 | uint64(i)*0x9e3779b97f4a7c15
	}
	out := map[string]*StatePayload{
		"gravity": NewState(n).AddFloat(data.AttrMass, floats(1)).AddVec(data.AttrPos, vecs(2)).AddVec(data.AttrVel, vecs(3)),
		"hydro": NewState(n).AddFloat(data.AttrMass, floats(1)).AddVec(data.AttrPos, vecs(2)).AddVec(data.AttrVel, vecs(3)).
			AddFloat(data.AttrInternalEnergy, floats(4)).AddFloat(data.AttrSmoothingLen, floats(5)),
		"abm": NewState(n).AddVec("agent_pos", vecs(6)).AddFloat("agent_state", floats(7)).AddFloat("agent_potential", floats(8)),
		"sse": NewState(n).AddFloat(data.AttrMass, floats(9)).AddFloat(data.AttrRadius, floats(10)).AddFloat(data.AttrLuminosity, floats(11)).
			AddFloat(data.AttrTemperature, floats(12)).AddFloat(data.AttrAge, floats(13)).AddFloat(data.AttrStellarType, floats(14)),
	}
	for name, st := range out {
		keyed := *st
		keyed.Key = keys
		out[name+"+keys"] = &keyed
	}
	return out
}

// TestBulkFramesByteIdentical: a state encoded once, into the frame that
// leaves, is on the wire what it was when every hop marshalled it into a
// slice and copied that behind a fresh header (oracle_test.go) — the
// get_state response, the transfer frame re-headed out of it in place, the
// set_state request and the staged apply request, for every kind's payload
// with and without keys at 0, 1 and 1 000 particles; and so is a typed
// request encoded behind its header.
func TestBulkFramesByteIdentical(t *testing.T) {
	const id, xfer, slot, worker = 7, 1 << 40, 99, 3
	const at = 1234567 * time.Microsecond
	same := func(t *testing.T, what string, got, want []byte) {
		t.Helper()
		if !bytes.Equal(got, want) {
			t.Errorf("%s: %d bytes, the copying path built %d; first difference at %d", what, len(got), len(want), firstDiff(got, want))
		}
	}
	for _, args := range []any{Empty{}, EvolveArgs{T: 0.125}, KickArgs{DV: make([]data.Vec3, 64)}} {
		req := EncodeRequest("kick", args)
		req.ID, req.Worker, req.SentAt = id, worker, at
		same(t, fmt.Sprintf("typed request %T", args), req.Frame(),
			oracleAppendRequest(nil, &Request{ID: id, Worker: worker, Method: "kick", Args: Encode(args), SentAt: at}))
	}
	for _, n := range []int{0, 1, 1000} {
		for name, st := range bulkPayloads(n) {
			t.Run(fmt.Sprintf("%s/%d", name, n), func(t *testing.T) {
				state, err := oracleMarshalState(st)
				if err != nil {
					t.Fatal(err)
				}
				if blob, err := MarshalState(st); err != nil || !bytes.Equal(blob, state) {
					t.Fatalf("MarshalState: %v, %d bytes against %d", err, len(blob), len(state))
				}

				res, err := StateReply(st)
				if err != nil {
					t.Fatal(err)
				}
				resp := FrameResponse(id, res, at, nil)
				same(t, "get_state response", resp, oracleAppendResponse(nil, &Response{ID: id, Result: state, DoneAt: at}))
				var back Response
				if err := UnmarshalResponse(resp, &back); err != nil {
					t.Fatal(err)
				}
				same(t, "transfer frame", TransferFromResponse(resp, len(back.Result), xfer), oracleAppendTransfer(nil, xfer, state))

				req, err := NewStateRequest("set_state", st)
				if err != nil {
					t.Fatal(err)
				}
				req.ID, req.Worker, req.SentAt = id, worker, at
				want := Request{ID: id, Worker: worker, Method: "set_state", Args: state, SentAt: at}
				same(t, "set_state request", req.Frame(), oracleAppendRequest(nil, &want))
				unframed := req.Unframed()
				same(t, "set_state request, replayed", unframed.Frame(), oracleAppendRequest(nil, &want))

				for _, s := range []uint64{0, slot} {
					apply := NewApplyRequest("stage_sources", s, state)
					apply.ID, apply.Worker, apply.SentAt = id, worker, at
					want := Request{ID: id, Worker: worker, Method: "stage_sources", Args: state, SentAt: at}
					if s != 0 {
						want.Args = oracleAppendStaged(nil, s, state)
					}
					same(t, fmt.Sprintf("apply request, slot %d", s), apply.Frame(), oracleAppendRequest(nil, &want))
				}
			})
		}
	}
}

func firstDiff(a, b []byte) int {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return min(len(a), len(b))
}

// stateFaults are frames a StateView must refuse: each is a structured
// error, never a panic and never a view a kind could start applying.
func stateFaults(t testing.TB) map[string][]byte {
	st := NewState(3).AddFloat(data.AttrMass, []float64{1, 2, 3}).
		AddVec(data.AttrPos, make([]data.Vec3, 3)).AddVec(data.AttrVel, make([]data.Vec3, 3))
	st.Key = []uint64{7, 8, 9}
	good, err := MarshalState(st)
	if err != nil {
		t.Fatal(err)
	}
	patched := func(off int, b ...byte) []byte {
		f := bytes.Clone(good)
		copy(f[off:], b)
		return f
	}
	twice := func(a *StatePayload) []byte {
		f, err := MarshalState(a)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	faults := map[string][]byte{
		"empty":           nil,
		"wrong tag":       patched(0, tagSnapshot),
		"odd key flag":    patched(5, 2),
		"trailing byte":   append(bytes.Clone(good), 0),
		"over-long N":     patched(1, 0xff, 0xff, 0xff, 0x7f),
		"N one too many":  patched(1, 4),
		"short last col":  good[:len(good)-1],
		"trailing count":  append(bytes.Clone(good[:1+4+1+24]), 0xff, 0xff),
		"duplicate float": twice(NewState(1).AddFloat("m", []float64{1}).AddFloat("m", []float64{2})),
		"duplicate vec":   twice(NewState(1).AddVec("x", make([]data.Vec3, 1)).AddVec("x", make([]data.Vec3, 1))),
		"float and vec":   twice(NewState(1).AddFloat("x", []float64{1}).AddVec("x", make([]data.Vec3, 1))),
	}
	for cut := 0; cut < len(good); cut += 7 {
		faults[fmt.Sprintf("truncated at %d", cut)] = good[:cut]
	}
	return faults
}

func TestStateViewFailsClosed(t *testing.T) {
	for name, frame := range stateFaults(t) {
		v, err := ViewState(frame)
		if err == nil {
			t.Errorf("%s: accepted as a view of %d particles", name, v.N)
			continue
		}
		if !strings.HasPrefix(err.Error(), "kernel:") && !strings.HasPrefix(err.Error(), "wire:") {
			t.Errorf("%s: unstructured error %q", name, err)
		}
		if _, err := UnmarshalState(frame); err == nil {
			t.Errorf("%s: UnmarshalState accepted what ViewState refused", name)
		}
	}
}

// FuzzStateView: whatever the bytes, ViewState errors or returns a view
// every column of which decodes in bounds and which re-encodes to the frame.
func FuzzStateView(f *testing.F) {
	for _, frame := range stateFaults(f) {
		f.Add(frame)
	}
	for _, st := range bulkPayloads(2) {
		frame, err := MarshalState(st)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(frame)
	}
	f.Fuzz(func(t *testing.T, frame []byte) {
		v, err := ViewState(frame)
		if err != nil {
			return
		}
		again, err := MarshalState(v.Payload())
		if err != nil {
			t.Fatalf("a view that parsed does not re-encode: %v", err)
		}
		// A key flag with N == 0 decodes to no key column: the one spot where
		// the re-encoding may differ, in that flag byte.
		if !bytes.Equal(frame, again) && !(v.N == 0 && v.HasKeys()) {
			t.Fatalf("view of a %d-byte frame re-encodes to %d other bytes", len(frame), len(again))
		}
		for i := range v.FloatAttrs {
			for j := 0; j < v.N; j++ {
				_ = v.FloatAt(i, j)
			}
		}
	})
}

// TestStateCodecAllocs: a detached round trip costs what it did before the
// view existed (bench/: kernel.state_codec_allocs), and applying a view
// into columns the caller owns costs the view's own bookkeeping and nothing
// per particle.
func TestStateCodecAllocs(t *testing.T) {
	st := bulkPayloads(1000)["gravity+keys"]
	frame, err := MarshalState(st)
	if err != nil {
		t.Fatal(err)
	}
	if got := testing.AllocsPerRun(50, func() {
		if _, err := MarshalState(st); err != nil {
			t.Fatal(err)
		}
		if _, err := UnmarshalState(frame); err != nil {
			t.Fatal(err)
		}
	}); got > 15 {
		t.Errorf("MarshalState + UnmarshalState: %v allocations, 15 before views", got)
	}
	mass, pos := make([]float64, st.N), make([]data.Vec3, st.N)
	if got := testing.AllocsPerRun(50, func() {
		v, err := ViewState(frame)
		if err != nil {
			t.Fatal(err)
		}
		v.FloatsInto(0, mass)
		v.VecsInto(0, pos)
	}); got > 7 { // two name lists, two column lists and a string per name
		t.Errorf("view and apply into owned columns: %v allocations, gate 7", got)
	}
	if mass[999] != st.FloatCols[0][999] || pos[999] != st.VecCols[0][999] {
		t.Fatal("columns decoded wrong")
	}
}
