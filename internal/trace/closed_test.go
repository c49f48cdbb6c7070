package trace

import (
	"fmt"
	"testing"
	"time"
)

// recordSession records one tenant's series: three call keys (one with an
// error) and the queue depth of its worker.
func recordSession(r *Recorder, session, worker string) {
	r.RecordCall(session, "abm", "setup", time.Millisecond, 2*time.Microsecond)
	r.RecordCall(session, "abm", "step", 3*time.Millisecond, 2*time.Microsecond)
	r.RecordCall(session, "abm", "get_state", 2*time.Millisecond, 2*time.Microsecond)
	r.RecordCallError(session, "abm", "step")
	r.RecordQueueDepth(session, worker, 1)
}

// TestCloseSessionFolds: a closed session's keys leave both tables, their
// counts land in the (closed) aggregate and never vanish, and closing the
// default session, the aggregate itself or an unknown id changes nothing.
func TestCloseSessionFolds(t *testing.T) {
	r := New()
	recordSession(r, "s1", "abm/4097@lgm")
	recordSession(r, "s2", "abm/8193@lgm")
	recordSession(r, "", "abm/1@lgm")
	r.RecordQueueDepth("s2", "abm/gang@lgm", 2)
	r.RecordQueueDepth("s2", "w0", 3)
	total := func() (calls, errs uint64) {
		for _, st := range r.CallsSnapshot() {
			calls += st.Hist.Count
			errs += st.Errors
		}
		return calls, errs
	}
	calls, errs := total()

	for _, id := range []string{"s1", "s2", "s2", "", ClosedSession, "never-seen"} {
		r.CloseSession(id)
		if c, e := total(); c != calls || e != errs {
			t.Fatalf("after closing %q: %d calls, %d errors; want %d, %d", id, c, e, calls, errs)
		}
	}
	for _, row := range r.CallTable() {
		if row.Session == "s1" || row.Session == "s2" {
			t.Fatalf("closed session's key survived: %+v", row.CallKey)
		}
	}
	snap := r.CallsSnapshot()
	step := snap[CallKey{Session: ClosedSession, Model: "abm", Method: "step"}]
	if step.Hist.Count != 2 || step.Errors != 2 || step.Floor != 2*time.Microsecond {
		t.Fatalf("closed abm/step aggregate %+v, want both sessions' 2 calls, 2 errors and the floor", step)
	}
	if got := snap[CallKey{Model: "abm", Method: "step"}].Hist.Count; got != 1 {
		t.Fatalf("default session's abm/step count %d, want 1: it is never closed", got)
	}

	want := []QueueRow{
		{Session: "", Worker: "abm/1@lgm"},
		{Session: ClosedSession, Worker: "abm@lgm"}, // 4097, 8193 and the gang
		{Session: ClosedSession, Worker: "w0"},      // no worker id to drop
	}
	qt := r.QueueTable()
	if len(qt) != len(want) {
		t.Fatalf("queue table %+v, want %d rows", qt, len(want))
	}
	for i, w := range want {
		if qt[i].Session != w.Session || qt[i].Worker != w.Worker {
			t.Fatalf("queue row %d = %s %s, want %s %s", i, qt[i].Session, qt[i].Worker, w.Session, w.Worker)
		}
	}
	if qt[1].Hist.Count != 3 || qt[1].Hist.Max != 2 {
		t.Fatalf("closed abm@lgm aggregate %+v, want 3 samples, max 2", qt[1].Hist)
	}
}

// TestDiffCallsAcrossSessionClose: a session that closes between two
// snapshots folds into the aggregate, and the diff still counts only the
// calls made between the snapshots — not the closed session's earlier
// calls a second time as the aggregate's growth.
func TestDiffCallsAcrossSessionClose(t *testing.T) {
	r := New()
	recordSession(r, "old", "abm/4097@lgm") // closed before either snapshot
	r.CloseSession("old")
	recordSession(r, "s1", "abm/8193@lgm")
	before := r.CallsSnapshot()
	r.RecordCall("s1", "abm", "step", 5*time.Millisecond, 0)
	r.RecordCallError("s1", "abm", "step")
	recordSession(r, "s2", "abm/12289@lgm")
	r.CloseSession("s1")
	r.CloseSession("s2")
	sum := DiffCalls(before, r.CallsSnapshot())
	if sum.Calls != 4 || sum.Errors != 2 {
		t.Fatalf("diff across a close = %d calls, %d errors; want 4 and 2 (s1's one, s2's three)", sum.Calls, sum.Errors)
	}
}

// TestRecorderAllocGate: recording on an existing key allocates nothing,
// and a close whose aggregates exist allocates nothing per call key and at
// most one string (the aggregate label) per queue key.
func TestRecorderAllocGate(t *testing.T) {
	r := New()
	recordSession(r, "s", "abm/4097@lgm")
	for name, f := range map[string]func(){
		"RecordCall":       func() { r.RecordCall("s", "abm", "step", time.Millisecond, time.Microsecond) },
		"RecordCallError":  func() { r.RecordCallError("s", "abm", "step") },
		"RecordQueueDepth": func() { r.RecordQueueDepth("s", "abm/4097@lgm", 2) },
	} {
		if a := testing.AllocsPerRun(100, f); a != 0 {
			t.Errorf("%s on an existing key: %v allocs, want 0", name, a)
		}
	}

	// Each run closes a fresh four-key session (three call keys, one queue
	// key); the first close made the aggregates.
	const runs = 50
	ids := make([]string, runs+2)
	for i := range ids {
		ids[i] = fmt.Sprintf("t%d", i)
		recordSession(r, ids[i], fmt.Sprintf("abm/%d@lgm", (i+2)*4096+1))
	}
	r.CloseSession(ids[0])
	next := 1
	if a := testing.AllocsPerRun(runs, func() { r.CloseSession(ids[next]); next++ }); a > 1 {
		t.Errorf("CloseSession of a four-key session: %v allocs, want at most 1", a)
	}
}

// BenchmarkRecordCall is the hot path every completed RPC takes.
func BenchmarkRecordCall(b *testing.B) {
	r := New()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.RecordCall("s", "gravity", "kick", time.Millisecond, time.Microsecond)
	}
}

// BenchmarkCloseSession is one tenant's life in the recorder, as on a
// daemon that runs one session at a time: three call keys and a queue key
// recorded, then folded into the (closed) aggregate.
func BenchmarkCloseSession(b *testing.B) {
	r := New()
	ids := make([]string, 64)
	for i := range ids {
		ids[i] = fmt.Sprintf("s%d", i)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		id := ids[i%len(ids)]
		recordSession(r, id, "abm/4097@lgm")
		r.CloseSession(id)
	}
}
