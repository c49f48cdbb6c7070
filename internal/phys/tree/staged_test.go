package tree

import (
	"context"
	"strings"
	"testing"

	"jungle/internal/amuse/data"
	"jungle/internal/amuse/ic"
	"jungle/internal/core/kernel"
	"jungle/internal/deploy"
)

// stagedService builds a ready field service via the registered factory.
func stagedService(t *testing.T) kernel.Service {
	t.Helper()
	svc, err := kernel.New(KindField, kernel.Config{
		Res: &deploy.Resource{Name: "test", Frontend: "test", CPU: cpu()},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(svc.Close)
	if _, _, err := svc.Dispatch("setup", kernel.Encode(kernel.SetupFieldArgs{Kernel: "fi", Eps: 0.05}), 0); err != nil {
		t.Fatal(err)
	}
	return svc
}

// stage dispatches one staged column application.
func stage(t *testing.T, svc kernel.Service, method string, slot uint64, st *kernel.StatePayload) {
	t.Helper()
	raw, err := kernel.MarshalState(st)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := svc.Dispatch(method, kernel.NewApplyRequest(method, slot, raw).Args, 0); err != nil {
		t.Fatal(err)
	}
}

// TestFieldStagedMatchesFieldAt: the staged evaluation path (the direct
// data plane's worker-side half) must be bit-identical to field_at with
// the same inputs, and must free its slot after use.
func TestFieldStagedMatchesFieldAt(t *testing.T) {
	svc := stagedService(t)
	src := ic.Plummer(80, 1)
	tgt := ic.Plummer(20, 2)

	stage(t, svc, "stage_sources", 5, kernel.NewState(src.Len()).
		AddFloat(data.AttrMass, src.Mass).AddVec(data.AttrPos, src.Pos))
	stage(t, svc, "stage_targets", 5, kernel.NewState(tgt.Len()).
		AddVec(data.AttrPos, tgt.Pos))

	out, _, err := svc.Dispatch("field_staged", kernel.Encode(kernel.FieldStagedArgs{Slot: 5}), 0)
	if err != nil {
		t.Fatal(err)
	}
	var staged kernel.FieldAtResult
	if err := kernel.Decode(out.Bytes(), &staged); err != nil {
		t.Fatal(err)
	}

	k := NewFi(cpu())
	acc, pot, _ := k.FieldAt(context.Background(), src.Mass, src.Pos, tgt.Pos, 0.05)
	if len(staged.Acc) != len(acc) {
		t.Fatalf("lengths %d vs %d", len(staged.Acc), len(acc))
	}
	for i := range acc {
		if staged.Acc[i] != acc[i] || staged.Pot[i] != pot[i] {
			t.Fatalf("staged[%d] = %v/%v, direct %v/%v", i, staged.Acc[i], staged.Pot[i], acc[i], pot[i])
		}
	}

	// The slot is consumed: a second evaluation must fail.
	if _, _, err := svc.Dispatch("field_staged", kernel.Encode(kernel.FieldStagedArgs{Slot: 5}), 0); err == nil {
		t.Fatal("field_staged reused a consumed slot")
	}
}

// TestStagedSlotsAreIndependent: two slots staged interleaved evaluate
// with their own inputs (the in-flight pipelining the bridge relies on).
func TestStagedSlotsAreIndependent(t *testing.T) {
	svc := stagedService(t)
	a := ic.Plummer(40, 3)
	b := ic.Plummer(40, 4)
	tgt := ic.Plummer(10, 5)

	stage(t, svc, "stage_sources", 1, kernel.NewState(a.Len()).
		AddFloat(data.AttrMass, a.Mass).AddVec(data.AttrPos, a.Pos))
	stage(t, svc, "stage_sources", 2, kernel.NewState(b.Len()).
		AddFloat(data.AttrMass, b.Mass).AddVec(data.AttrPos, b.Pos))
	stage(t, svc, "stage_targets", 1, kernel.NewState(tgt.Len()).AddVec(data.AttrPos, tgt.Pos))
	stage(t, svc, "stage_targets", 2, kernel.NewState(tgt.Len()).AddVec(data.AttrPos, tgt.Pos))

	eval := func(slot uint64) kernel.FieldAtResult {
		t.Helper()
		out, _, err := svc.Dispatch("field_staged", kernel.Encode(kernel.FieldStagedArgs{Slot: slot}), 0)
		if err != nil {
			t.Fatal(err)
		}
		var res kernel.FieldAtResult
		if err := kernel.Decode(out.Bytes(), &res); err != nil {
			t.Fatal(err)
		}
		return res
	}
	r2 := eval(2) // consume out of order
	r1 := eval(1)

	k := NewFi(cpu())
	accA, _, _ := k.FieldAt(context.Background(), a.Mass, a.Pos, tgt.Pos, 0.05)
	accB, _, _ := k.FieldAt(context.Background(), b.Mass, b.Pos, tgt.Pos, 0.05)
	for i := range accA {
		if r1.Acc[i] != accA[i] {
			t.Fatalf("slot 1 acc[%d] = %v, want %v", i, r1.Acc[i], accA[i])
		}
		if r2.Acc[i] != accB[i] {
			t.Fatalf("slot 2 acc[%d] = %v, want %v", i, r2.Acc[i], accB[i])
		}
	}
}

// TestStageMissingColumnsNameAttribute: staged uploads without the
// required columns fail naming the attribute.
func TestStageMissingColumnsNameAttribute(t *testing.T) {
	svc := stagedService(t)
	p := ic.Plummer(4, 6)

	raw, err := kernel.MarshalState(kernel.NewState(p.Len()).AddVec(data.AttrPos, p.Pos))
	if err != nil {
		t.Fatal(err)
	}
	_, _, err = svc.Dispatch("stage_sources", kernel.NewApplyRequest("stage_sources", 1, raw).Args, 0)
	if err == nil || !strings.Contains(err.Error(), data.AttrMass) {
		t.Fatalf("stage_sources without mass: %v (want error naming %q)", err, data.AttrMass)
	}

	raw, err = kernel.MarshalState(kernel.NewState(p.Len()).AddFloat(data.AttrMass, p.Mass))
	if err != nil {
		t.Fatal(err)
	}
	_, _, err = svc.Dispatch("stage_targets", kernel.NewApplyRequest("stage_targets", 1, raw).Args, 0)
	if err == nil || !strings.Contains(err.Error(), data.AttrPos) {
		t.Fatalf("stage_targets without position: %v (want error naming %q)", err, data.AttrPos)
	}
}
