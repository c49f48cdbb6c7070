package kernel

import (
	"bytes"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"
	"time"

	"jungle/internal/amuse/data"
)

// specials are the floats whose bits a codec could bend: a NaN with a
// payload, both infinities, -0 and the smallest subnormal.
var specials = []float64{math.Float64frombits(0x7ff8_dead_beef_0001), math.Inf(1), math.Inf(-1),
	math.Copysign(0, -1), math.SmallestNonzeroFloat64}

// bulkPayloads are the state payloads the four kinds put on the wire, at n
// particles: gravity (mass, position, velocity), hydro (those plus u and h),
// the agent colony and the SSE observables — and "specials", whose columns
// cycle through specials behind odd-length names, so they start at odd
// offsets in the frame — each without keys and keyed one to five times over,
// with keys at and above 2^63.
func bulkPayloads(n int) map[string]*StatePayload {
	special := func(seed int) []float64 {
		col := make([]float64, n)
		for i := range col {
			col[i] = specials[(seed+i)%len(specials)]
		}
		return col
	}
	specialVecs := func(seed int) []data.Vec3 {
		col := make([]data.Vec3, n)
		for i := range col {
			col[i] = data.Vec3{specials[(seed+i)%len(specials)], specials[(seed+i+1)%len(specials)], specials[(seed+i+2)%len(specials)]}
		}
		return col
	}
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
	keys := func(seed uint64) []uint64 {
		col := make([]uint64, n)
		for i := range col {
			col[i] = 1<<63 | (uint64(i)+seed)*0x9e3779b97f4a7c15
		}
		return col
	}
	kinds := map[string]*StatePayload{
		"gravity": NewState(n).AddFloat(data.AttrMass, floats(1)).AddVec(data.AttrPos, vecs(2)).AddVec(data.AttrVel, vecs(3)),
		"hydro": NewState(n).AddFloat(data.AttrMass, floats(1)).AddVec(data.AttrPos, vecs(2)).AddVec(data.AttrVel, vecs(3)).
			AddFloat(data.AttrInternalEnergy, floats(4)).AddFloat(data.AttrSmoothingLen, floats(5)),
		"abm": NewState(n).AddVec("agent_pos", vecs(6)).AddFloat("agent_state", floats(7)).AddFloat("agent_potential", floats(8)),
		"sse": NewState(n).AddFloat(data.AttrMass, floats(9)).AddFloat(data.AttrRadius, floats(10)).AddFloat(data.AttrLuminosity, floats(11)).
			AddFloat(data.AttrTemperature, floats(12)).AddFloat(data.AttrAge, floats(13)).AddFloat(data.AttrStellarType, floats(14)),
		"specials": NewState(n).AddFloat("odd", special(0)).AddVec("vec", specialVecs(1)).AddFloat("x", special(2)),
	}
	// Each further "+keys" re-keys the payload before with a fresh key
	// column, which the frame must carry in place of the last one.
	out := make(map[string]*StatePayload, 6*len(kinds))
	for name, st := range kinds {
		out[name] = st
		for seed := range uint64(5) {
			keyed := *st
			keyed.Key = keys(seed)
			name, st = name+"+keys", &keyed
			out[name] = st
		}
	}
	return out
}

// TestBulkFramesByteIdentical: a state encoded once, into the frame that
// leaves, is on the wire what it was when every hop marshalled it into a
// slice and copied that behind a fresh header (oracle_test.go) — the
// get_state response, the transfer frame re-headed out of it in place, the
// set_state request and the staged apply request, for every kind's payload
// with and without keys at 0, 1 and 1 000 particles; and so is a typed
// request encoded behind its header, and a set_particles upload whose
// payload aliases the set instead of copying it. A pull that scatters the
// reply's view into a particle set leaves it as scattering a decoded payload
// did.
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
	sets := []*data.Particles{{}} // no columns at all
	for _, n := range []int{0, 1, 1000} {
		p := data.NewParticles(n)
		for i := range n {
			x := float64(i)
			p.Mass[i], p.InternalEnergy[i], p.SmoothingLen[i] = math.Sin(x), math.Cos(x), -x
			p.Pos[i], p.Vel[i] = data.Vec3{x, -x, math.Copysign(0, -1)}, data.Vec3{math.Sqrt(x), 1 / (x + 1), x * x}
		}
		sets = append(sets, p)
	}
	for _, p := range sets {
		req := EncodeRequest("set_particles", ParticlesToPayload(p))
		req.ID, req.Worker, req.SentAt = id, worker, at
		same(t, fmt.Sprintf("set_particles request, %d particles", p.Len()), req.Frame(), oracleAppendRequest(nil,
			&Request{ID: id, Worker: worker, Method: "set_particles", Args: Encode(oracleParticlesToPayload(p)), SentAt: at}))
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

				// A pull scatters the reply's view into the caller's set; the
				// copying path decoded a payload and scattered that.
				pulled, copied := data.NewParticles(n), data.NewParticles(n)
				v, err := ViewState(back.Result)
				if err != nil {
					t.Fatal(err)
				}
				payload, err := UnmarshalState(state)
				if err != nil {
					t.Fatal(err)
				}
				errView, errCopy := ScatterView(pulled, &v), ScatterState(copied, payload)
				if (errView == nil) != (errCopy == nil) {
					t.Fatalf("scatter from the view: %v; from the payload: %v", errView, errCopy)
				}
				if errView == nil {
					attrs := append(slices.Clone(st.FloatAttrs), st.VecAttrs...)
					same(t, "pulled columns", gathered(t, pulled, attrs), gathered(t, copied, attrs))
				}
			})
		}
	}
}

// gathered is the encoding of p's named columns.
func gathered(t *testing.T, p *data.Particles, attrs []string) []byte {
	t.Helper()
	st, err := GatherState(p, attrs...)
	if err != nil {
		t.Fatal(err)
	}
	b, err := MarshalState(st)
	if err != nil {
		t.Fatal(err)
	}
	return b
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

// BenchmarkStateCodec: a detached round trip, MarshalState then
// UnmarshalState, of bulk_state's payload — 50 000 gravity particles with
// keys, 3.2 MB.
func BenchmarkStateCodec(b *testing.B) {
	st := bulkPayloads(50_000)["gravity+keys"]
	b.SetBytes(int64(stateSize(st)))
	b.ReportAllocs()
	for b.Loop() {
		frame, err := MarshalState(st)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := UnmarshalState(frame); err != nil {
			b.Fatal(err)
		}
	}
}

// TestOwnershipFrameList: a frame-sized buffer handed back is the next one
// taken. Buffers round up to a 64 KiB size class, so the one a get_state
// reply was built in carries the set_state request for the same columns,
// and a take and a release allocate nothing once the list holds a buffer.
// Below 64 KiB a buffer is allocated exactly and never kept.
func TestOwnershipFrameList(t *testing.T) {
	st := bulkPayloads(3000)["gravity+keys"] // a 192 KB state
	res, err := StateReply(st)
	if err != nil {
		t.Fatal(err)
	}
	if c := cap(res.frame); c%frameClass != 0 || c < respHeader+stateSize(st) {
		t.Fatalf("a %d-byte reply in a %d-byte buffer, want a multiple of %d", respHeader+stateSize(st), c, frameClass)
	}
	ReleaseFrame(res.frame)
	req, err := NewStateRequest("set_state", st)
	if err != nil {
		t.Fatal(err)
	}
	// The race detector makes sync.Pool drop what it is handed now and then.
	if !raceEnabled && &req.frame[0] != &res.frame[0] {
		t.Error("the set_state request did not take the buffer its reply handed back")
	}
	if small := takeFrame(frameClass - 1); cap(small) != frameClass-1 {
		t.Errorf("a %d-byte buffer has capacity %d, want it exact", frameClass-1, cap(small))
	}
	if !raceEnabled {
		if n := testing.AllocsPerRun(100, func() { ReleaseFrame(takeFrame(1 << 20)) }); n != 0 {
			t.Errorf("take and release: %v allocations, want 0", n)
		}
	}
}

// TestOwnershipPoisonedRelease: with the use-after-release check on, a view
// that outlives the frame it aliases reads 0xA5 — through the whole buffer,
// and for small frames too, which the list does not keep.
func TestOwnershipPoisonedRelease(t *testing.T) {
	PoisonReleased(true)
	t.Cleanup(func() { PoisonReleased(false) })
	for _, size := range []int{100, 3 * frameClass} {
		frame := append(takeFrame(size), bytes.Repeat([]byte{7}, size)...)
		view := frame[size/2:]
		ReleaseFrame(frame)
		if i := slices.IndexFunc(view[:cap(view)], func(b byte) bool { return b != 0xA5 }); i >= 0 {
			t.Errorf("%d-byte frame: byte %d of a view behind the release reads 0x%02x", size, size/2+i, view[i])
		}
	}
}
