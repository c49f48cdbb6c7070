package trace

import (
	"fmt"
	"testing"
	"time"
)

// recordSession records one tenant's series: three call keys, one with an
// error.
func recordSession(r *Recorder, session string) {
	r.RecordCall(session, "abm", "setup", time.Millisecond, 2*time.Microsecond)
	r.RecordCall(session, "abm", "step", 3*time.Millisecond, 2*time.Microsecond)
	r.RecordCall(session, "abm", "get_state", 2*time.Millisecond, 2*time.Microsecond)
	r.RecordCallError(session, "abm", "step")
}

// TestCloseSessionFolds: a closed session's keys leave the table, their
// counts land in the (closed) aggregate and never vanish, and closing the
// default session, the aggregate itself or an unknown id changes nothing.
func TestCloseSessionFolds(t *testing.T) {
	r := New()
	recordSession(r, "s1")
	recordSession(r, "s2")
	recordSession(r, "")
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
}

// TestRetentionFoldedSessions: CloseSession folds a session's stats row
// into the (closed) row, so the table holds the live sessions and one row
// more; totals over Sessions() do not change across a fold, and a late
// event for a folded id lands in the (closed) row instead of reviving its
// own.
func TestRetentionFoldedSessions(t *testing.T) {
	r := New()
	type totals struct{ workers, calls, transfers, evictions, resumes, closed int }
	sum := func() (s totals) {
		for _, st := range r.Sessions() {
			s.workers += st.Workers
			s.calls += st.Calls
			s.transfers += st.Transfers
			s.evictions += st.Evictions
			s.resumes += st.Resumes
			s.closed += st.Closed
		}
		return s
	}
	const n = 64
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("s%02d", i)
		r.SessionState(id, "running")
		r.SessionWorkerDelta(id, 2)
		r.SessionCall(id)
		r.SessionTransfer(id)
		r.SessionEviction(id)
		r.SessionResume(id)
		r.SessionWorkerDelta(id, -1) // one worker still live at the fold
	}
	before := sum()
	for i := 0; i < n; i++ {
		if i%2 == 0 {
			r.CloseSession(fmt.Sprintf("s%02d", i))
		}
	}
	after := sum()
	after.closed = 0
	if after != before {
		t.Fatalf("totals across the fold: %+v, want %+v", after, before)
	}
	if got := len(r.Sessions()); got != n/2+1 {
		t.Fatalf("%d rows with %d sessions live, want %d", got, n/2, n/2+1)
	}

	r.SessionCall("s00")
	r.SessionState("s00", "running")
	r.SessionWorkerDelta("s00", -1)
	rows := r.Sessions()
	if _, ok := rows["s00"]; ok || len(rows) != n/2+1 {
		t.Fatalf("a late event revived the folded row: %d rows", len(rows))
	}
	agg := rows[ClosedSession]
	if agg.State != "closed" || agg.Closed != n/2 || agg.Calls != n/2+1 || agg.Workers != n/2-1 || agg.Resumes != n/2 {
		t.Fatalf("(closed) row %+v: want state closed, %d sessions, %d calls, %d workers, %d resumes",
			agg, n/2, n/2+1, n/2-1, n/2)
	}
	r.CloseSession("s00") // already folded: counted once
	if got := r.Sessions()[ClosedSession].Closed; got != n/2 {
		t.Fatalf("closing a folded id again counted %d sessions, want %d", got, n/2)
	}
}

// TestDiffCallsAcrossSessionClose: a session that closes between two
// snapshots folds into the aggregate, and the diff still counts only the
// calls made between the snapshots — not the closed session's earlier
// calls a second time as the aggregate's growth.
func TestDiffCallsAcrossSessionClose(t *testing.T) {
	r := New()
	recordSession(r, "old") // closed before either snapshot
	r.CloseSession("old")
	recordSession(r, "s1")
	before := r.CallsSnapshot()
	r.RecordCall("s1", "abm", "step", 5*time.Millisecond, 0)
	r.RecordCallError("s1", "abm", "step")
	recordSession(r, "s2")
	r.CloseSession("s1")
	r.CloseSession("s2")
	sum := DiffCalls(before, r.CallsSnapshot())
	if sum.Calls != 4 || sum.Errors != 2 {
		t.Fatalf("diff across a close = %d calls, %d errors; want 4 and 2 (s1's one, s2's three)", sum.Calls, sum.Errors)
	}
}

// TestRecorderAllocGate: recording on an existing key allocates nothing,
// and neither does a close whose aggregates exist.
func TestRecorderAllocGate(t *testing.T) {
	r := New()
	recordSession(r, "s")
	for name, f := range map[string]func(){
		"RecordCall":      func() { r.RecordCall("s", "abm", "step", time.Millisecond, time.Microsecond) },
		"RecordCallError": func() { r.RecordCallError("s", "abm", "step") },
	} {
		if a := testing.AllocsPerRun(100, f); a != 0 {
			t.Errorf("%s on an existing key: %v allocs, want 0", name, a)
		}
	}

	// Each run closes a fresh three-key session; the first close made the
	// aggregates.
	const runs = 50
	ids := make([]string, runs+2)
	for i := range ids {
		ids[i] = fmt.Sprintf("t%d", i)
		recordSession(r, ids[i])
	}
	r.CloseSession(ids[0])
	next := 1
	if a := testing.AllocsPerRun(runs, func() { r.CloseSession(ids[next]); next++ }); a != 0 {
		t.Errorf("CloseSession of a three-key session: %v allocs, want 0", a)
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
// daemon that runs one session at a time: three call keys recorded, then
// folded into the (closed) aggregate.
func BenchmarkCloseSession(b *testing.B) {
	r := New()
	ids := make([]string, 64)
	for i := range ids {
		ids[i] = fmt.Sprintf("s%d", i)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		id := ids[i%len(ids)]
		recordSession(r, id)
		r.CloseSession(id)
	}
}
