package main

import (
	"reflect"
	"testing"
)

func TestSelfTime(t *testing.T) {
	spans := []span{
		{Name: "op", Start: 0, End: 100, Parent: -1, Op: 0},
		{Name: "a", Start: 10, End: 40, Parent: 0, Op: 0},
		{Name: "b", Start: 30, End: 60, Parent: 0, Op: 0},   // overlaps a: 30..40 counts once
		{Name: "c", Start: 90, End: 120, Parent: 0, Op: 0},  // runs past its parent: clipped at 100
		{Name: "a.1", Start: 15, End: 20, Parent: 1, Op: 0}, // grandchild: only a's business
		{Name: "op", Start: 200, End: 250, Parent: -1, Op: 1},
	}
	want := []int64{
		100 - (30 + 20 + 10), // op 0: a 10..40, b's 40..60, c's 90..100
		30 - 5,
		30,
		30,
		5,
		50,
	}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
}

func TestSpanSums(t *testing.T) {
	spans := []span{
		{Name: "x", Start: 0, End: 2000, Parent: -1, Op: -1}, // set-up span
		{Name: "x", Start: 0, End: 1000, Parent: -1, Op: 0},
		{Name: "x", Start: 0, End: 3000, Parent: -1, Op: 0},
		{Name: "y", Start: 0, End: 9000, Parent: -1, Op: 0},
		{Name: "x", Start: 0, End: 5000, Parent: -1, Op: 2},
	}
	if got, want := perOp(spans, "x"), []float64{4, 5}; !reflect.DeepEqual(got, want) {
		t.Errorf("perOp = %v, want %v", got, want)
	}
	if got, want := durations(spans, "x"), []float64{2, 1, 3, 5}; !reflect.DeepEqual(got, want) {
		t.Errorf("durations = %v, want %v", got, want)
	}
}

func TestNilRecorderRecordsNothing(t *testing.T) {
	var r *spanRec
	id := r.begin("op", -1, 0)
	r.end(id)
	r.end(r.under("setup"))
	if id != -1 {
		t.Errorf("nil recorder returned span %d", id)
	}
	r = newSpanRec()
	id = r.begin("op", -1, 0)
	r.end(id)
	first := r.spans[id].End
	r.end(id)
	if r.spans[id].End != first || first < r.spans[id].Start {
		t.Errorf("span %+v: a second end moved it", r.spans[id])
	}
}
