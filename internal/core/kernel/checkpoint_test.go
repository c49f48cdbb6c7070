package kernel

import (
	"testing"
	"time"

	"jungle/internal/amuse/data"
)

// TestSnapshotRoundTrip: the snapshot frame must survive the codec
// bit-for-bit — restore-after-replacement depends on it.
func TestSnapshotRoundTrip(t *testing.T) {
	st := NewState(3)
	st.Key = []uint64{7, 8, 9}
	st.AddFloat(data.AttrMass, []float64{1, 2.5, 3.25})
	st.AddVec(data.AttrPos, []data.Vec3{{1, 2, 3}, {4, 5, 6}, {7, 8, 9}})
	st.AddVec(data.AttrVel, []data.Vec3{{-1, 0, 1}, {0.5, 0, -0.5}, {0, 0, 0}})
	in := &Snapshot{
		Kind:  "gravity",
		Model: 0.015625,
		Steps: 42,
		VTime: 1234 * time.Microsecond,
		State: st,
		Extra: []byte{0xde, 0xad, 0xbe, 0xef},
	}
	frame, err := AppendSnapshot(nil, in)
	if err != nil {
		t.Fatal(err)
	}
	out, err := UnmarshalSnapshot(frame)
	if err != nil {
		t.Fatal(err)
	}
	if out.Kind != in.Kind || out.Model != in.Model || out.Steps != in.Steps || out.VTime != in.VTime {
		t.Fatalf("metadata mismatch: %+v vs %+v", out, in)
	}
	if string(out.Extra) != string(in.Extra) {
		t.Fatalf("extra mismatch: %x", out.Extra)
	}
	if out.State == nil || out.State.N != 3 {
		t.Fatalf("state missing: %+v", out.State)
	}
	for i, k := range in.State.Key {
		if out.State.Key[i] != k {
			t.Fatalf("key %d mismatch", i)
		}
	}
	for i := 0; i < 3; i++ {
		if out.State.Float(data.AttrMass)[i] != st.Float(data.AttrMass)[i] ||
			out.State.Vec(data.AttrPos)[i] != st.Vec(data.AttrPos)[i] ||
			out.State.Vec(data.AttrVel)[i] != st.Vec(data.AttrVel)[i] {
			t.Fatalf("column mismatch at %d", i)
		}
	}
}

// TestSnapshotRoundTripNoState: Extra-only snapshots (stellar, analytic)
// and empty snapshots must round-trip too.
func TestSnapshotRoundTripNoState(t *testing.T) {
	for _, in := range []*Snapshot{
		{Kind: "stellar", Model: 3.5, Extra: []byte("population")},
		{Kind: "coupling"},
	} {
		frame, err := AppendSnapshot(nil, in)
		if err != nil {
			t.Fatal(err)
		}
		out, err := UnmarshalSnapshot(frame)
		if err != nil {
			t.Fatalf("%s: %v", in.Kind, err)
		}
		if out.Kind != in.Kind || out.Model != in.Model || out.State != nil {
			t.Fatalf("%s: mismatch %+v", in.Kind, out)
		}
		if string(out.Extra) != string(in.Extra) {
			t.Fatalf("%s: extra mismatch", in.Kind)
		}
	}
}

// TestSnapshotKindCheck: restoring a snapshot onto the wrong kind fails.
func TestSnapshotKindCheck(t *testing.T) {
	s := &Snapshot{Kind: "gravity"}
	if err := s.CheckKind("hydro"); err == nil {
		t.Fatal("cross-kind restore not rejected")
	}
	if err := s.CheckKind("gravity"); err != nil {
		t.Fatal(err)
	}
}

// TestSnapshotTruncation: a truncated frame must fail cleanly, not panic
// or return garbage.
func TestSnapshotTruncation(t *testing.T) {
	st := NewState(2)
	st.AddFloat(data.AttrMass, []float64{1, 2})
	frame, err := AppendSnapshot(nil, &Snapshot{Kind: "gravity", State: st})
	if err != nil {
		t.Fatal(err)
	}
	for cut := 1; cut < len(frame); cut += 3 {
		if _, err := UnmarshalSnapshot(frame[:cut]); err == nil {
			t.Fatalf("truncation at %d/%d not detected", cut, len(frame))
		}
	}
}
