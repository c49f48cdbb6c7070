package trace

import (
	"strings"
	"sync"
	"testing"
	"time"
)

// TestRecorderConcurrentPlane hammers one Recorder from many goroutines —
// every write path of the observability plane racing every render,
// snapshot and session fold — and then checks the exact totals. Run under -race (the
// Makefile's race target) this is the plane's thread-safety proof.
func TestRecorderConcurrentPlane(t *testing.T) {
	r := New()
	const writers, iters = 8, 300
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sessions := []string{"", "s1", "s2"}
			methods := []string{"kick", "evolve", "get_state"}
			for i := 0; i < iters; i++ {
				sess := sessions[i%len(sessions)]
				meth := methods[i%len(methods)]
				r.RecordCall(sess, "gravity", meth, time.Duration(i+1)*time.Microsecond, 2*time.Microsecond)
				r.RecordCallError(sess, "hydro", meth)
				r.RecordLinkTransfer("a", "b", LinkDirect)
				r.RecordCheckpoint("gravity", 1000)
				r.RecordRestore("gravity", time.Millisecond)
				r.SessionCall("s1")
				r.TrafficCounter("a", "b", "ipl").Add(1)
			}
		}(w)
	}
	// Readers race the writers over every view the plane renders.
	stop := make(chan struct{})
	var readers sync.WaitGroup
	for g := 0; g < 4; g++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				_ = r.RenderCalls()
				_ = r.RenderHealth()
				_ = r.RenderSessions()
				_ = r.CallsSnapshot()
				_ = r.StoreTable()
				// Folding s2 while writers still record it must not
				// lose a count: the totals below include the aggregate.
				r.CloseSession("s2")
			}
		}()
	}
	wg.Wait()
	close(stop)
	readers.Wait()

	var calls, errs uint64
	for _, row := range r.CallTable() {
		calls += row.Stats.Hist.Count
		errs += row.Stats.Errors
	}
	if want := uint64(writers * iters); calls != want || errs != want {
		t.Fatalf("calls/errors = %d/%d, want %d each", calls, errs, want)
	}
	rows := r.LinkHealthTable()
	if len(rows) != 1 || rows[0].Transfers.Direct != writers*iters {
		t.Fatalf("link health %+v, want %d direct transfers", rows, writers*iters)
	}
	st := r.StoreTable()
	if len(st) != 1 || st[0].Stats.Checkpoints != writers*iters || st[0].Stats.Restores != writers*iters {
		t.Fatalf("store gauges %+v", st)
	}
	if s, ok := r.Sessions()["s1"]; !ok || s.Calls != writers*iters {
		t.Fatalf("session calls %+v", s)
	}
	if got := bytesOf(r, "a", "b", "ipl"); got != writers*iters {
		t.Fatalf("traffic %d, want %d", got, writers*iters)
	}
}

// TestSnapshotsAreDeepCopies: every table/snapshot the plane hands out
// must be detached from the recorder — mutating a returned row must not
// leak back, and later recording must not mutate an earlier snapshot.
func TestSnapshotsAreDeepCopies(t *testing.T) {
	r := New()
	r.RecordCall("", "gravity", "kick", time.Millisecond, time.Microsecond)
	r.RecordCheckpoint("gravity", 10)
	r.RecordRestore("gravity", time.Millisecond)

	snap := r.CallsSnapshot()
	key := CallKey{Model: "gravity", Method: "kick"}
	before := snap[key].Hist.Count

	// Mutate everything the recorder handed out.
	rows := r.CallTable()
	rows[0].Stats.Hist.Record(1)
	rows[0].Stats.Errors = 99
	srows := r.StoreTable()
	srows[0].Stats.RestoreHist.Record(7)

	// Record more and confirm the old snapshot kept its point-in-time view.
	r.RecordCall("", "gravity", "kick", 2*time.Millisecond, time.Microsecond)
	if snap[key].Hist.Count != before {
		t.Fatal("CallsSnapshot is not a deep copy: later recording mutated it")
	}
	if got := r.CallTable()[0].Stats; got.Errors != 0 || got.Hist.Count != 2 {
		t.Fatalf("mutating a CallTable row leaked into the recorder: %+v", got)
	}
	if got := r.StoreTable()[0].Stats.RestoreHist.Count; got != 1 {
		t.Fatalf("mutating a StoreTable row leaked into the recorder: count %d", got)
	}
}

// TestRenderDeterminism: every Render*/Table output must be identical
// across repeated calls and independent of recording order — map
// iteration must never leak into the views.
func TestRenderDeterminism(t *testing.T) {
	build := func(reverse bool) *Recorder {
		r := New()
		type call struct{ sess, model, method string }
		calls := []call{
			{"", "gravity", "kick"}, {"s2", "hydro", "evolve"}, {"s1", "stellar", "setup"},
			{"", "coupling", "accept_state"}, {"s1", "gravity/r0", "kick"},
		}
		links := [][2]string{{"c", "d"}, {"a", "b"}, {"b", "a"}}
		if reverse {
			for i, j := 0, len(calls)-1; i < j; i, j = i+1, j-1 {
				calls[i], calls[j] = calls[j], calls[i]
			}
			links[0], links[2] = links[2], links[0]
		}
		// Per-key values derive from the key, not the insertion index, so
		// the two recorders hold identical data in different orders.
		for _, c := range calls {
			r.RecordCall(c.sess, c.model, c.method, time.Duration(len(c.method))*time.Millisecond, time.Microsecond)
		}
		for _, l := range links {
			r.RecordLinkTransfer(l[0], l[1], LinkFallback)
		}
		r.RecordCheckpoint("hydro", 2)
		r.RecordCheckpoint("gravity", 4)
		r.SessionState("s2", "running")
		r.SessionState("s1", "queued")
		return r
	}
	a, b := build(false), build(true)
	views := []struct {
		name string
		fn   func(*Recorder) string
	}{
		{"RenderCalls", func(r *Recorder) string { return r.RenderCalls() }},
		{"RenderHealth", func(r *Recorder) string { return r.RenderHealth() }},
		{"RenderSessions", func(r *Recorder) string { return r.RenderSessions() }},
	}
	for _, v := range views {
		first := v.fn(a)
		if second := v.fn(a); second != first {
			t.Fatalf("%s not stable across calls:\n%s\nvs\n%s", v.name, first, second)
		}
		if other := v.fn(b); other != first {
			t.Fatalf("%s depends on recording order:\n%s\nvs\n%s", v.name, first, other)
		}
	}
	// Table orderings are the contract the renders build on.
	ct := a.CallTable()
	for i := 1; i < len(ct); i++ {
		p, q := ct[i-1], ct[i]
		if p.Session > q.Session || (p.Session == q.Session && p.Model > q.Model) {
			t.Fatalf("CallTable unsorted at %d: %+v", i, ct)
		}
	}
	lh := a.LinkHealthTable()
	for i := 1; i < len(lh); i++ {
		if lh[i-1].From > lh[i].From {
			t.Fatalf("LinkHealthTable unsorted: %+v", lh)
		}
	}
}

// TestCallFloorIsLeast: a key that two channels record into — a WAN
// worker's 82 ms floor and an in-process worker's 10 µs — keeps the lesser
// floor whatever the order, so no recorded call is faster than it; folding
// two sessions' rows into (closed) keeps it the same way.
func TestCallFloorIsLeast(t *testing.T) {
	const wan, local = 82 * time.Millisecond, 10 * time.Microsecond
	for _, floors := range [][2]time.Duration{{wan, local}, {local, wan}} {
		r := New()
		for i, f := range floors {
			r.RecordCall("", "gravity", "checkpoint", f, f)
			r.RecordCall([]string{"s0", "s1"}[i], "gravity", "checkpoint", f, f)
		}
		r.CloseSession("s0")
		r.CloseSession("s1")
		snap := r.CallsSnapshot()
		for _, key := range []CallKey{
			{Model: "gravity", Method: "checkpoint"},
			{Session: ClosedSession, Model: "gravity", Method: "checkpoint"},
		} {
			st := snap[key]
			if st.Floor != local || time.Duration(st.Hist.Min) < st.Floor {
				t.Fatalf("floors %v into %v: floor %v, min %v; want floor %v, min at or above it",
					floors, key, st.Floor, time.Duration(st.Hist.Min), local)
			}
		}
	}
}

// TestDiffCalls: the snapshot diff isolates exactly the calls recorded
// between the snapshots, across keys, including errors.
func TestDiffCalls(t *testing.T) {
	r := New()
	r.RecordCall("", "gravity", "kick", time.Millisecond, 0)
	r.RecordCallError("", "hydro", "evolve")
	before := r.CallsSnapshot()
	r.RecordCall("", "gravity", "kick", 3*time.Millisecond, 0)
	r.RecordCall("", "hydro", "evolve", 5*time.Millisecond, 0)
	r.RecordCallError("", "hydro", "evolve")
	sum := DiffCalls(before, r.CallsSnapshot())
	if sum.Calls != 2 || sum.Errors != 1 {
		t.Fatalf("diff = %+v, want 2 calls, 1 error", sum)
	}
	if sum.P50 < 3*time.Millisecond {
		t.Fatalf("diff p50 %v includes pre-snapshot samples", sum.P50)
	}
	if s := sum.String(); !strings.Contains(s, "2 calls") || !strings.Contains(s, "1 errors") {
		t.Fatalf("summary string %q", s)
	}
	empty := DiffCalls(nil, nil)
	if empty.Calls != 0 || empty.String() != "no calls" {
		t.Fatalf("empty diff = %+v %q", empty, empty.String())
	}
	// nil before: the whole recorder is the diff.
	whole := DiffCalls(nil, r.CallsSnapshot())
	if whole.Calls != 3 || whole.Errors != 2 {
		t.Fatalf("nil-before diff = %+v", whole)
	}
}

// TestRenderCallsContent: the rendered table carries the floor, with "-"
// for the empty session label.
func TestRenderCallsContent(t *testing.T) {
	r := New()
	r.RecordCall("", "gravity", "kick", 4*time.Millisecond, 2*time.Millisecond)
	out := r.RenderCalls()
	for _, want := range []string{"gravity", "kick", "2ms", "FLOOR"} {
		if !strings.Contains(out, want) {
			t.Fatalf("RenderCalls missing %q:\n%s", want, out)
		}
	}
	if !strings.Contains(out, "-") {
		t.Fatalf("empty session must render as '-':\n%s", out)
	}
}

// TestSessionAccounting covers the remaining session counters end to end.
func TestSessionAccounting(t *testing.T) {
	r := New()
	r.SessionState("s1", "running")
	r.SessionWorkerDelta("s1", 4)
	r.SessionWorkerDelta("s1", -1)
	r.SessionTransfer("s1")
	r.SessionEviction("s1")
	r.SessionResume("s1")
	s, ok := r.Sessions()["s1"]
	if !ok || s.State != "running" || s.Workers != 3 || s.Transfers != 1 || s.Evictions != 1 || s.Resumes != 1 {
		t.Fatalf("session stats %+v", s)
	}
	if _, ok := r.Sessions()["nope"]; ok {
		t.Fatal("unknown session must report ok=false")
	}
	all := r.Sessions()
	if len(all) != 1 {
		t.Fatalf("sessions %+v", all)
	}
	out := r.RenderSessions()
	if !strings.Contains(out, "s1") || !strings.Contains(out, "running") {
		t.Fatalf("sessions render:\n%s", out)
	}
	if empty := New().RenderSessions(); !strings.Contains(empty, "(none)") {
		t.Fatalf("empty sessions render:\n%s", empty)
	}
}
