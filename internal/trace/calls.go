package trace

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"
)

// Channel-layer call telemetry: every RPC any channel (mpi, conn, gang)
// completes records its virtual round-trip latency under a
// session/model/method key, and every issue records the channel's
// in-flight depth under a session/worker key. Recording is lock-striped —
// a fixed shard array keyed by a hash of the label — so many channels
// hammering one Recorder contend only per shard, and the hot path
// allocates nothing once a key's histogram exists.
//
// A session's series end with the session: CloseSession folds them into
// the ClosedSession aggregate. The stripe hash leaves out what the fold
// drops from a key — the session, and a queue label's worker id — so a
// key and its aggregate share a stripe and the fold is done in place,
// under one lock.

// callStripes is the number of lock stripes for call/queue recording.
const callStripes = 16

// ClosedSession is the session label of the aggregate that closed
// sessions' call and queue-depth series fold into (see CloseSession).
const ClosedSession = "(closed)"

// CallKey labels one call-latency histogram.
type CallKey struct {
	Session string // "" for standalone simulations
	Model   string // worker kind, with a "/r<rank>" suffix for gang ranks
	Method  string
}

// CallStats is the recorded telemetry for one call key.
type CallStats struct {
	Hist   Histogram // virtual round-trip latency, nanoseconds
	Errors uint64    // transport-level failures (no response arrived)
	// Floor is the configured vtime round-trip minimum for the channel
	// that recorded the calls (2x the routed path latency; the mpi
	// message cost for in-process channels). Calibrate compares observed
	// latency against it.
	Floor time.Duration
}

// merge folds another key's stats into c; the later floor wins, as it
// does when recording.
func (c *CallStats) merge(o *CallStats) {
	c.Hist.Merge(&o.Hist)
	c.Errors += o.Errors
	if o.Floor > 0 {
		c.Floor = o.Floor
	}
}

// queueKey labels one queue-depth histogram.
type queueKey struct {
	Session, Worker string
}

type callShard struct {
	mu     sync.Mutex
	calls  map[CallKey]*CallStats
	queues map[queueKey]*Histogram
}

// FNV-1a, inline over the strings: no hasher value, no []byte copies.
const (
	fnvOffset32 = 2166136261
	fnvPrime32  = 16777619
)

func fnvAdd(h uint32, s string) uint32 {
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= fnvPrime32
	}
	return h
}

// callShard is a call key's stripe: a hash of its model and method (with
// a zero byte between them), never of its session.
func (r *Recorder) callShard(model, method string) *callShard {
	h := fnvAdd(fnvOffset32, model) * fnvPrime32
	return &r.callShards[fnvAdd(h, method)%callStripes]
}

// splitWorkerID splits a queue label "kind/<id>@resource" around its
// worker id into "kind" and "@resource". A label without a "/" before its
// "@" has no id: it comes back whole, with an empty tail.
func splitWorkerID(label string) (head, tail string) {
	at := strings.LastIndexByte(label, '@')
	if at < 0 {
		at = len(label)
	}
	slash := strings.LastIndexByte(label[:at], '/')
	if slash < 0 {
		return label, ""
	}
	return label[:slash], label[at:]
}

// queueShard is a queue key's stripe: a hash of its label without the
// worker id, never of its session.
func (r *Recorder) queueShard(worker string) *callShard {
	head, tail := splitWorkerID(worker)
	return &r.callShards[fnvAdd(fnvAdd(fnvOffset32, head), tail)%callStripes]
}

// callLocked returns (creating if needed) a key's stats. Callers hold s.mu.
func (s *callShard) callLocked(key CallKey) *CallStats {
	st := s.calls[key]
	if st == nil {
		if s.calls == nil {
			s.calls = make(map[CallKey]*CallStats)
		}
		st = &CallStats{}
		s.calls[key] = st
	}
	return st
}

// RecordCall records one completed call's virtual round-trip latency.
// floor is the channel's configured minimum round trip (kept with the
// stats for calibration; pass 0 when unknown).
func (r *Recorder) RecordCall(session, model, method string, latency, floor time.Duration) {
	s := r.callShard(model, method)
	s.mu.Lock()
	st := s.callLocked(CallKey{Session: session, Model: model, Method: method})
	st.Hist.Record(int64(latency))
	if floor > 0 {
		st.Floor = floor
	}
	s.mu.Unlock()
}

// RecordCallError counts a call that failed at the transport level (the
// completion carried an error instead of a response).
func (r *Recorder) RecordCallError(session, model, method string) {
	s := r.callShard(model, method)
	s.mu.Lock()
	s.callLocked(CallKey{Session: session, Model: model, Method: method}).Errors++
	s.mu.Unlock()
}

// RecordQueueDepth records a channel's in-flight call count, sampled at
// issue time, under the session's worker label (kind/<id>@resource).
func (r *Recorder) RecordQueueDepth(session, worker string, depth int) {
	key := queueKey{Session: session, Worker: worker}
	s := r.queueShard(worker)
	s.mu.Lock()
	h := s.queues[key]
	if h == nil {
		if s.queues == nil {
			s.queues = make(map[queueKey]*Histogram)
		}
		h = &Histogram{}
		s.queues[key] = h
	}
	h.Record(int64(depth))
	s.mu.Unlock()
}

// CloseSession ends a session's series: each of its call keys folds into
// {ClosedSession, model, method} and each queue key into {ClosedSession,
// kind@resource}, and the session's own keys are deleted. Counts move and
// are never dropped, so the totals over CallsSnapshot do not change. A key
// whose aggregate does not exist yet becomes it; otherwise the fold merges
// in place. The default session "" is never closed.
func (r *Recorder) CloseSession(id string) {
	if id == "" || id == ClosedSession {
		return
	}
	for i := range r.callShards {
		s := &r.callShards[i]
		s.mu.Lock()
		// A key added while ranging may or may not be visited; the
		// aggregates added here are not id's, so either way is skipped.
		for k, st := range s.calls {
			if k.Session != id {
				continue
			}
			delete(s.calls, k)
			k.Session = ClosedSession
			if agg := s.calls[k]; agg != nil {
				agg.merge(st)
			} else {
				s.calls[k] = st
			}
		}
		for k, h := range s.queues {
			if k.Session != id {
				continue
			}
			delete(s.queues, k)
			head, tail := splitWorkerID(k.Worker)
			k = queueKey{Session: ClosedSession, Worker: head + tail}
			if agg := s.queues[k]; agg != nil {
				agg.Merge(h)
			} else {
				s.queues[k] = h
			}
		}
		s.mu.Unlock()
	}
}

// CallRow is one line of the per-method latency table.
type CallRow struct {
	CallKey
	Stats CallStats
}

// CallTable returns every recorded call key with a deep copy of its
// stats, sorted by session, model, method.
func (r *Recorder) CallTable() []CallRow {
	var rows []CallRow
	for i := range r.callShards {
		s := &r.callShards[i]
		s.mu.Lock()
		for k, st := range s.calls {
			rows = append(rows, CallRow{CallKey: k, Stats: *st})
		}
		s.mu.Unlock()
	}
	sort.Slice(rows, func(i, j int) bool {
		a, b := rows[i], rows[j]
		if a.Session != b.Session {
			return a.Session < b.Session
		}
		if a.Model != b.Model {
			return a.Model < b.Model
		}
		return a.Method < b.Method
	})
	return rows
}

// CallsSnapshot returns a deep copy of all call stats, keyed for
// point-in-time diffing (see DiffCalls).
func (r *Recorder) CallsSnapshot() map[CallKey]CallStats {
	out := make(map[CallKey]CallStats)
	for i := range r.callShards {
		s := &r.callShards[i]
		s.mu.Lock()
		for k, st := range s.calls {
			out[k] = *st
		}
		s.mu.Unlock()
	}
	return out
}

// QueueRow is one line of the per-worker queue-depth table.
type QueueRow struct {
	Session string
	Worker  string
	Hist    Histogram
}

// QueueTable returns every worker's queue-depth histogram (deep copies),
// sorted by session, then worker label.
func (r *Recorder) QueueTable() []QueueRow {
	var rows []QueueRow
	for i := range r.callShards {
		s := &r.callShards[i]
		s.mu.Lock()
		for k, h := range s.queues {
			rows = append(rows, QueueRow{Session: k.Session, Worker: k.Worker, Hist: *h})
		}
		s.mu.Unlock()
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].Session != rows[j].Session {
			return rows[i].Session < rows[j].Session
		}
		return rows[i].Worker < rows[j].Worker
	})
	return rows
}

// CallSummary aggregates a set of call stats into one line.
type CallSummary struct {
	Calls  uint64
	Errors uint64
	P50    time.Duration
	P99    time.Duration
}

// String renders the summary for per-iteration experiment lines.
func (c CallSummary) String() string {
	if c.Calls == 0 {
		return "no calls"
	}
	s := fmt.Sprintf("%d calls, rpc p50 %s / p99 %s",
		c.Calls, c.P50.Round(time.Microsecond), c.P99.Round(time.Microsecond))
	if c.Errors > 0 {
		s += fmt.Sprintf(", %d errors", c.Errors)
	}
	return s
}

// DiffCalls merges the per-key growth between two CallsSnapshot maps
// (before may be nil) into one summary — the call telemetry attributable
// to the work done between the snapshots.
func DiffCalls(before, after map[CallKey]CallStats) CallSummary {
	var merged Histogram
	var errors uint64
	for k, st := range after {
		h := st.Hist
		errs := st.Errors
		if prev, ok := before[k]; ok {
			h.Sub(&prev.Hist)
			errs -= prev.Errors
		}
		merged.Merge(&h)
		errors += errs
	}
	// A session closed between the snapshots: its keys are gone from
	// after, and what they held in before is part of its aggregate's
	// growth above. Take it back out, or it counts as new work.
	for k, prev := range before {
		if _, ok := after[k]; ok {
			continue
		}
		if _, ok := after[CallKey{Session: ClosedSession, Model: k.Model, Method: k.Method}]; ok {
			merged.Sub(&prev.Hist)
			errors -= prev.Errors
		}
	}
	return CallSummary{
		Calls:  merged.Count,
		Errors: errors,
		P50:    time.Duration(merged.Quantile(0.5)),
		P99:    time.Duration(merged.Quantile(0.99)),
	}
}

// RenderCalls renders the channel-layer telemetry: per-method latency
// histograms (count, errors, p50/p90/p99/max, and the configured floor)
// followed by the per-worker queue-depth table.
func (r *Recorder) RenderCalls() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s %-14s %-18s %8s %6s %10s %10s %10s %10s %10s\n",
		"SESSION", "MODEL", "METHOD", "CALLS", "ERRS", "P50", "P90", "P99", "MAX", "FLOOR")
	for _, row := range r.CallTable() {
		h := &row.Stats.Hist
		fmt.Fprintf(&b, "%-12s %-14s %-18s %8d %6d %10s %10s %10s %10s %10s\n",
			sessionLabel(row.Session), row.Model, row.Method, h.Count, row.Stats.Errors,
			fmtDur(h.Quantile(0.5)), fmtDur(h.Quantile(0.9)), fmtDur(h.Quantile(0.99)),
			fmtDur(h.Max), row.Stats.Floor.Round(time.Microsecond))
	}
	fmt.Fprintf(&b, "\n%-12s %-40s %10s %8s %8s %8s\n", "SESSION", "WORKER QUEUE", "SAMPLES", "P50", "P99", "MAX")
	for _, row := range r.QueueTable() {
		fmt.Fprintf(&b, "%-12s %-40s %10d %8d %8d %8d\n", sessionLabel(row.Session),
			row.Worker, row.Hist.Count, row.Hist.Quantile(0.5), row.Hist.Quantile(0.99), row.Hist.Max)
	}
	return b.String()
}

// sessionLabel renders the standalone session "" as "-".
func sessionLabel(s string) string {
	if s == "" {
		return "-"
	}
	return s
}
