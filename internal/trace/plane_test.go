package trace

import (
	"strings"
	"sync"
	"testing"
	"time"
)

// TestRecorderConcurrentPlane hammers one Recorder from many goroutines —
// every write path of the observability plane racing every render and
// snapshot path — and then checks the exact totals. Run under -race (the
// Makefile's race target) this is the plane's thread-safety proof.
func TestRecorderConcurrentPlane(t *testing.T) {
	r := New()
	specs := []LinkSpec{{From: "a", To: "b", Bandwidth: 1e6}, {From: "b", To: "a", Bandwidth: 1e6}}
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
				r.RecordQueueDepth("gravity/0@lgm", i%7)
				r.RecordLinkTransfer("a", "b", LinkDirect)
				r.RecordCheckpoint("gravity", 1000)
				r.RecordRestore("gravity", time.Millisecond)
				r.RecordGoodput("a", "b", 1e6, time.Duration(i)*time.Millisecond)
				r.RecordCapacity("lgm", i%2, 1)
				r.SessionCall("s1")
				r.RecordTraffic("a", "b", "ipl", 1)
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
				_ = r.RenderHealth(-1)
				_ = r.RenderSessions()
				_ = r.CallsSnapshot()
				_ = r.QueueTable()
				_ = r.Calibrate(specs)
				_ = r.StoreTable()
				_ = r.CapacityTable()
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
	qt := r.QueueTable()
	if len(qt) != 1 || qt[0].Hist.Count != writers*iters {
		t.Fatalf("queue table %+v, want one worker with %d samples", qt, writers*iters)
	}
	rows := r.LinkHealthTable(-1, DefaultStaleAfter)
	if len(rows) != 1 || rows[0].Transfers.Direct != writers*iters {
		t.Fatalf("link health %+v, want %d direct transfers", rows, writers*iters)
	}
	st := r.StoreTable()
	if len(st) != 1 || st[0].Stats.Checkpoints != writers*iters || st[0].Stats.Restores != writers*iters {
		t.Fatalf("store gauges %+v", st)
	}
	if s, ok := r.Session("s1"); !ok || s.Calls != writers*iters {
		t.Fatalf("session calls %+v", s)
	}
	if got := r.Bytes("a", "b", "ipl"); got != writers*iters {
		t.Fatalf("traffic %d, want %d", got, writers*iters)
	}
}

// TestSnapshotsAreDeepCopies: every table/snapshot the plane hands out
// must be detached from the recorder — mutating a returned row must not
// leak back, and later recording must not mutate an earlier snapshot.
func TestSnapshotsAreDeepCopies(t *testing.T) {
	r := New()
	r.RecordCall("", "gravity", "kick", time.Millisecond, time.Microsecond)
	r.RecordQueueDepth("w0", 3)
	r.RecordCheckpoint("gravity", 10)
	r.RecordRestore("gravity", time.Millisecond)

	snap := r.CallsSnapshot()
	key := CallKey{Model: "gravity", Method: "kick"}
	before := snap[key].Hist.Count

	// Mutate everything the recorder handed out.
	rows := r.CallTable()
	rows[0].Stats.Hist.Record(1)
	rows[0].Stats.Errors = 99
	qrows := r.QueueTable()
	qrows[0].Hist.Record(100)
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
	if got := r.QueueTable()[0].Hist.Count; got != 1 {
		t.Fatalf("mutating a QueueTable row leaked into the recorder: count %d", got)
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
			r.RecordQueueDepth(c.model+"/0@res", len(c.model))
		}
		for _, l := range links {
			r.RecordGoodput(l[0], l[1], float64(len(l[0]+l[1]))*1e6, time.Duration(len(l[0]))*time.Second)
			r.RecordLinkTransfer(l[0], l[1], LinkFallback)
		}
		r.RecordCheckpoint("hydro", 2)
		r.RecordCheckpoint("gravity", 4)
		r.RecordCapacity("vu", 1, 8)
		r.RecordCapacity("lgm", 0, 1)
		r.SessionState("s2", "running")
		r.SessionState("s1", "queued")
		return r
	}
	a, b := build(false), build(true)
	specs := []LinkSpec{{From: "b", To: "a", Bandwidth: 1e6}, {From: "a", To: "b", Bandwidth: 2e6}}
	views := []struct {
		name string
		fn   func(*Recorder) string
	}{
		{"RenderCalls", func(r *Recorder) string { return r.RenderCalls() }},
		{"RenderHealth", func(r *Recorder) string { return r.RenderHealth(5 * time.Second) }},
		{"RenderSessions", func(r *Recorder) string { return r.RenderSessions() }},
		{"Calibrate", func(r *Recorder) string { return r.Calibrate(specs).Render() }},
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
	lh := a.LinkHealthTable(-1, DefaultStaleAfter)
	for i := 1; i < len(lh); i++ {
		if lh[i-1].From > lh[i].From {
			t.Fatalf("LinkHealthTable unsorted: %+v", lh)
		}
	}
}

// TestLinkHealthStaleness: rows age out against the caller's clock, and a
// negative clock disables marking entirely.
func TestLinkHealthStaleness(t *testing.T) {
	r := New()
	r.RecordGoodput("a", "b", 1e6, time.Second)
	r.RecordGoodput("a", "c", 1e6, 10*time.Minute)
	r.RecordLinkTransfer("a", "d", LinkFallback) // transfers but never probed
	rows := r.LinkHealthTable(10*time.Minute, time.Minute)
	if len(rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(rows))
	}
	if !rows[0].Stale || rows[1].Stale {
		t.Fatalf("staleness wrong: %+v", rows)
	}
	if rows[2].HasGoodput || rows[2].Transfers.Fallback != 1 {
		t.Fatalf("unprobed link row wrong: %+v", rows[2])
	}
	for _, row := range r.LinkHealthTable(-1, time.Minute) {
		if row.Stale {
			t.Fatalf("negative now must disable staleness: %+v", row)
		}
	}
	out := r.RenderHealth(10 * time.Minute)
	if !strings.Contains(out, "STALE") {
		t.Fatalf("render missing STALE marker:\n%s", out)
	}
}

// TestCalibrate: drift math against configured bandwidths and floors,
// unmeasured-edge reporting, and the roll-up MaxLinkDrift.
func TestCalibrate(t *testing.T) {
	r := New()
	r.RecordGoodput("a", "b", 0.95e6, time.Second) // 5% low
	r.RecordGoodput("b", "a", 1.2e6, time.Second)  // 20% high
	r.RecordCall("", "gravity", "kick", 110*time.Microsecond, 100*time.Microsecond)
	r.RecordCall("", "mpi", "kick", time.Millisecond, 0) // no floor: excluded
	specs := []LinkSpec{
		{From: "a", To: "b", Bandwidth: 1e6},
		{From: "b", To: "a", Bandwidth: 1e6},
		{From: "c", To: "d", Bandwidth: 1e6}, // never probed
	}
	cal := r.Calibrate(specs)
	if len(cal.Links) != 3 {
		t.Fatalf("links = %d, want 3", len(cal.Links))
	}
	byEdge := map[[2]string]LinkDrift{}
	for _, d := range cal.Links {
		byEdge[[2]string{d.From, d.To}] = d
	}
	if d := byEdge[[2]string{"a", "b"}]; !d.Measured || d.Drift < 0.049 || d.Drift > 0.051 {
		t.Fatalf("a->b drift %+v, want ~5%%", d)
	}
	if d := byEdge[[2]string{"b", "a"}]; d.Drift < 0.199 || d.Drift > 0.201 {
		t.Fatalf("b->a drift %+v, want ~20%% (absolute value of +20%%)", d)
	}
	if byEdge[[2]string{"c", "d"}].Measured {
		t.Fatal("unprobed edge must report Measured=false")
	}
	worst, all := cal.MaxLinkDrift()
	if all {
		t.Fatal("allMeasured must be false with an unprobed edge")
	}
	if worst < 0.199 || worst > 0.201 {
		t.Fatalf("worst drift %v, want ~0.2", worst)
	}
	if len(cal.Calls) != 1 || cal.Calls[0].Model != "gravity" {
		t.Fatalf("call drift rows %+v, want only the floored gravity key", cal.Calls)
	}
	if d := cal.Calls[0].Drift; d < 0.099 || d > 0.101 {
		t.Fatalf("call drift %v, want ~10%%", d)
	}
	out := cal.Render()
	if !strings.Contains(out, "unmeas") || !strings.Contains(out, "gravity") {
		t.Fatalf("calibration render incomplete:\n%s", out)
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

// TestRenderCallsContent: the rendered table carries the floor and the
// queue section, with "-" for the empty session label.
func TestRenderCallsContent(t *testing.T) {
	r := New()
	r.RecordCall("", "gravity", "kick", 4*time.Millisecond, 2*time.Millisecond)
	r.RecordQueueDepth("gravity/0@lgm", 2)
	out := r.RenderCalls()
	for _, want := range []string{"gravity", "kick", "2ms", "gravity/0@lgm", "FLOOR", "WORKER QUEUE"} {
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
	s, ok := r.Session("s1")
	if !ok || s.State != "running" || s.Workers != 3 || s.Transfers != 1 || s.Evictions != 1 || s.Resumes != 1 {
		t.Fatalf("session stats %+v", s)
	}
	if _, ok := r.Session("nope"); ok {
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
