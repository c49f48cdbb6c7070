package kernel

import (
	"strings"
	"testing"

	"jungle/internal/amuse/data"
)

func sampleStateFrame(t *testing.T) []byte {
	t.Helper()
	st := NewState(3).
		AddFloat(data.AttrMass, []float64{1, 2, 3}).
		AddVec(data.AttrPos, []data.Vec3{{1, 0, 0}, {0, 1, 0}, {0, 0, 1}})
	b, err := MarshalState(st)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestTransferFrameRoundTrip(t *testing.T) {
	state := sampleStateFrame(t)
	frame := oracleAppendTransfer(nil, 42, state)
	id, got, abort, err := UnmarshalTransfer(frame)
	if err != nil {
		t.Fatal(err)
	}
	if id != 42 || abort {
		t.Fatalf("id=%d abort=%v, want 42/false", id, abort)
	}
	st, err := UnmarshalState(got)
	if err != nil {
		t.Fatal(err)
	}
	if st.N != 3 || st.Float(data.AttrMass)[2] != 3 {
		t.Fatalf("state did not survive the stream frame: %+v", st)
	}
}

func TestTransferAbortRoundTrip(t *testing.T) {
	frame := AppendTransferAbort(nil, 7)
	id, state, abort, err := UnmarshalTransfer(frame)
	if err != nil {
		t.Fatal(err)
	}
	if id != 7 || !abort || len(state) != 0 {
		t.Fatalf("id=%d abort=%v state=%d bytes, want 7/true/empty", id, abort, len(state))
	}
}

func TestTransferAckRoundTrip(t *testing.T) {
	frame := AppendTransferAck(nil, 99)
	id, err := UnmarshalTransferAck(frame)
	if err != nil {
		t.Fatal(err)
	}
	if id != 99 {
		t.Fatalf("id = %d, want 99", id)
	}
}

func TestStagedFrameRoundTrip(t *testing.T) {
	state := sampleStateFrame(t)
	slot, got, err := UnmarshalStaged(NewApplyRequest("stage_sources", 11, state).Args)
	if err != nil {
		t.Fatal(err)
	}
	if slot != 11 {
		t.Fatalf("slot = %d, want 11", slot)
	}
	if st, err := UnmarshalState(got); err != nil || st.N != 3 {
		t.Fatalf("staged state: %v / %+v", err, st)
	}
}

func TestTransferFramesRejectGarbage(t *testing.T) {
	if _, _, _, err := UnmarshalTransfer([]byte{tagStaged, 0}); err == nil {
		t.Fatal("transfer accepted a staged tag")
	}
	if _, _, _, err := UnmarshalTransfer(oracleAppendTransfer(nil, 1, []byte("x"))[:4]); err == nil {
		t.Fatal("truncated transfer frame accepted")
	}
	if _, err := UnmarshalTransferAck([]byte{tagTransfer}); err == nil {
		t.Fatal("ack accepted a transfer tag")
	}
	if _, _, err := UnmarshalStaged([]byte{tagStaged, 1, 2}); err == nil {
		t.Fatal("truncated staged frame accepted")
	}
	if _, _, err := UnmarshalStaged(nil); err == nil || !strings.Contains(err.Error(), "truncated") {
		t.Fatalf("empty staged frame: %v", err)
	}
}
