package kernel

import (
	"math"
	"regexp"
	"strings"
	"testing"

	"jungle/internal/amuse/data"
	"jungle/internal/wiretest"
)

// payloads holds the zero value of every typed payload that crosses
// Encode/Decode. TestPayloadRegistryComplete fails when a payload type is
// declared in this package and not listed here.
var payloads = []any{
	SetupGravityArgs{}, SetupHydroArgs{}, SetupStellarArgs{}, SetupFieldArgs{},
	ParticlesPayload{}, EvolveArgs{}, KickArgs{}, SetMassArgs{}, InjectArgs{},
	FieldAtArgs{}, FieldAtResult{}, FieldStagedArgs{}, VecResult{}, FloatsResult{},
	EnergiesResult{}, StellarEvolveResult{}, StellarEventPayload{}, StatsResult{}, Empty{},
	GangInitArgs{}, ReshardArgs{}, RankLoadResult{},
	OfferStateArgs{}, AcceptStateArgs{}, OfferCheckpointArgs{},
}

func TestPayloadsOnTheWire(t *testing.T) {
	for _, zero := range payloads {
		wiretest.Check(t, zero)
	}
}

// StatePayload matches the pattern but never crosses Encode: it has its own
// column codec (state.go).
func TestPayloadRegistryComplete(t *testing.T) {
	wiretest.CheckRegistry(t, regexp.MustCompile(`(Args|Result|Payload|Report)$|^Empty$`), append([]any{StatePayload{}}, payloads...))
}

// The hot payloads of a coupled step, at a size the control plane really
// sends: the encodings hold their bits and are far below gob's.
func TestKickSizes(t *testing.T) {
	zero := KickArgs{DV: make([]data.Vec3, 64)}
	if n, g := len(Encode(zero)), wiretest.GobSize(t, zero); n > g || n != 1+64*3 {
		t.Errorf("all-zero 64-star kick: %d bytes (gob %d), want %d", n, g, 1+64*3)
	}
	if n := len(Encode(Empty{})); n != 0 {
		t.Errorf("Empty: %d bytes, want 0", n)
	}
	weird := KickArgs{DV: []data.Vec3{{math.Copysign(0, -1), math.Float64frombits(0x7ff8000000000abc), 5e-324}}}
	var back KickArgs
	if err := Decode(Encode(weird), &back); err != nil {
		t.Fatal(err)
	}
	for i, x := range weird.DV[0] {
		if math.Float64bits(back.DV[0][i]) != math.Float64bits(x) {
			t.Errorf("component %d: %#x crossed as %#x", i, math.Float64bits(x), math.Float64bits(back.DV[0][i]))
		}
	}
}

// Alloc gates (ROADMAP item 3): the arg codec used to cost 323 allocations
// for this round trip and 157 for an Empty result.
func TestCodecAllocGates(t *testing.T) {
	kick := KickArgs{DV: make([]data.Vec3, 64)}
	if got := testing.AllocsPerRun(200, func() {
		var back KickArgs
		if err := Decode(Encode(kick), &back); err != nil {
			t.Fatal(err)
		}
	}); got > 4 {
		t.Errorf("64-star KickArgs round trip: %v allocs, gate 4", got)
	}
	if got := testing.AllocsPerRun(200, func() {
		var back Empty
		if err := Decode(Encode(Empty{}), &back); err != nil {
			t.Fatal(err)
		}
	}); got > 1 {
		t.Errorf("Empty round trip: %v allocs, gate 1", got)
	}
}

// TestLongErrKeepsTheFrame: an error text of 64 KiB or more used to wrap
// its 16-bit length and desynchronise the Result behind it.
func TestLongErrKeepsTheFrame(t *testing.T) {
	in := Response{ID: 9, Code: CodeWorkerFault, Err: strings.Repeat("e", 1<<16+10), Result: []byte("result")}
	var out Response
	if err := UnmarshalResponse(AppendResponse(nil, &in), &out); err != nil {
		t.Fatal(err)
	}
	if out.ID != 9 || out.Code != CodeWorkerFault || string(out.Result) != "result" || len(out.Err) != math.MaxUint16 {
		t.Fatalf("got id %d code %d result %q and %d bytes of error text", out.ID, out.Code, out.Result, len(out.Err))
	}
}
