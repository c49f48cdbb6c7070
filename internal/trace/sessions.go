package trace

import (
	"fmt"
	"sort"
	"strings"
)

// Per-session accounting for the multi-tenant control plane: jungled
// labels each session's calls, transfers and workers so one recorder can
// answer "who is using the jungle, and how much" — the monitoring view
// the single-tenant traffic/load tables cannot give once several
// simulations share a daemon.

// SessionStats is one session's accumulated accounting.
type SessionStats struct {
	State     string // control-plane lifecycle state (queued/running/...)
	Workers   int    // live workers the session holds right now
	Calls     int    // RPCs issued by the session's coupler
	Transfers int    // state transfers / checkpoint movements
	Evictions int    // times the scheduler idle-reaped the session
	Resumes   int    // times the session was resumed from its checkpoint
	Closed    int    // sessions folded into this row (the ClosedSession row only)
}

// RetiredWindow is how many retired ids a Retired remembers: enough that a
// late event or a reused id within the last thousand closes is still
// recognised, at a fixed cost however many sessions a daemon serves.
const RetiredWindow = 1024

// Retired is a fixed window of the most recently retired ids: a ring of
// the last RetiredWindow of them and a set over the same ids. An id older
// than the window is forgotten. The zero value is empty and allocates
// nothing until the first Add; the owner serialises access.
type Retired struct {
	ring []string
	next int
	set  map[string]struct{}
}

// Add retires id, forgetting the oldest id once the window is full.
func (w *Retired) Add(id string) {
	if w.set == nil {
		w.ring = make([]string, RetiredWindow)
		w.set = make(map[string]struct{}, RetiredWindow)
	}
	if _, ok := w.set[id]; ok {
		return
	}
	delete(w.set, w.ring[w.next])
	w.ring[w.next] = id
	w.next = (w.next + 1) % RetiredWindow
	w.set[id] = struct{}{}
}

// Has reports whether id is in the window.
func (w *Retired) Has(id string) bool {
	_, ok := w.set[id]
	return ok
}

// sessionLocked returns (creating if needed) a session's record; an id
// CloseSession folded within the window gets the ClosedSession row, so a
// late event neither recreates its row nor is lost. Callers hold r.mu.
func (r *Recorder) sessionLocked(id string) *SessionStats {
	if s := r.sessions[id]; s != nil {
		return s
	}
	if r.sessions == nil {
		r.sessions = make(map[string]*SessionStats)
	}
	if r.folded.Has(id) {
		id = ClosedSession
		if s := r.sessions[id]; s != nil {
			return s
		}
	}
	s := &SessionStats{}
	r.sessions[id] = s
	return s
}

// closeSessionStats folds a session's row into the ClosedSession row: its
// counters and worker gauge add up there, the row counts one more session,
// and the session's own row goes. Totals over Sessions() do not change.
// An id with no row (never seen, or already folded) changes nothing.
func (r *Recorder) closeSessionStats(id string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.sessions[id]
	if s == nil {
		return
	}
	delete(r.sessions, id)
	r.folded.Add(id)
	agg := r.sessionLocked(ClosedSession)
	agg.State = "closed"
	agg.Workers += s.Workers
	agg.Calls += s.Calls
	agg.Transfers += s.Transfers
	agg.Evictions += s.Evictions
	agg.Resumes += s.Resumes
	agg.Closed++
}

// SessionState records a session's control-plane lifecycle state. The
// ClosedSession row's state stays "closed". The empty state forgets a row
// that holds nothing but its state: a session that never ran.
func (r *Recorder) SessionState(id, state string) {
	r.mu.Lock()
	if state == "" {
		if s := r.sessions[id]; s != nil && *s == (SessionStats{State: s.State}) {
			delete(r.sessions, id)
		}
	} else if s := r.sessionLocked(id); s.Closed == 0 {
		s.State = state
	}
	r.mu.Unlock()
}

// SessionWorkerDelta adjusts a session's live-worker gauge.
func (r *Recorder) SessionWorkerDelta(id string, delta int) {
	r.mu.Lock()
	r.sessionLocked(id).Workers += delta
	r.mu.Unlock()
}

// SessionCall counts one RPC issued on behalf of a session.
func (r *Recorder) SessionCall(id string) {
	r.mu.Lock()
	r.sessionLocked(id).Calls++
	r.mu.Unlock()
}

// SessionTransfer counts one state transfer on behalf of a session.
func (r *Recorder) SessionTransfer(id string) {
	r.mu.Lock()
	r.sessionLocked(id).Transfers++
	r.mu.Unlock()
}

// SessionEviction counts one idle-reap of a session.
func (r *Recorder) SessionEviction(id string) {
	r.mu.Lock()
	r.sessionLocked(id).Evictions++
	r.mu.Unlock()
}

// SessionResume counts one checkpoint resume of a session.
func (r *Recorder) SessionResume(id string) {
	r.mu.Lock()
	r.sessionLocked(id).Resumes++
	r.mu.Unlock()
}

// Sessions returns a copy of every session's stats.
func (r *Recorder) Sessions() map[string]SessionStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]SessionStats, len(r.sessions))
	for id, s := range r.sessions {
		out[id] = *s
	}
	return out
}

// RenderSessions renders the control plane's tenancy table — the
// multi-tenant companion to RenderCalls/RenderHealth.
func (r *Recorder) RenderSessions() string {
	stats := r.Sessions()
	ids := make([]string, 0, len(stats))
	for id := range stats {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	var b strings.Builder
	b.WriteString("sessions:\n")
	for _, id := range ids {
		s := stats[id]
		fmt.Fprintf(&b, "  %-16s %-10s workers=%-3d calls=%-7d transfers=%-5d evictions=%d resumes=%d",
			id, s.State, s.Workers, s.Calls, s.Transfers, s.Evictions, s.Resumes)
		if s.Closed > 0 {
			fmt.Fprintf(&b, " sessions=%d", s.Closed)
		}
		b.WriteByte('\n')
	}
	if len(ids) == 0 {
		b.WriteString("  (none)\n")
	}
	return b.String()
}
