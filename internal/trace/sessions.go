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
}

// sessionLocked returns (creating if needed) a session's record. Callers
// hold r.mu.
func (r *Recorder) sessionLocked(id string) *SessionStats {
	if r.sessions == nil {
		r.sessions = make(map[string]*SessionStats)
	}
	s := r.sessions[id]
	if s == nil {
		s = &SessionStats{}
		r.sessions[id] = s
	}
	return s
}

// SessionState records a session's control-plane lifecycle state.
func (r *Recorder) SessionState(id, state string) {
	r.mu.Lock()
	r.sessionLocked(id).State = state
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

// Session returns a copy of one session's stats; ok is false when the
// session was never recorded.
func (r *Recorder) Session(id string) (SessionStats, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	s, ok := r.sessions[id]
	if !ok {
		return SessionStats{}, false
	}
	return *s, true
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
		fmt.Fprintf(&b, "  %-16s %-10s workers=%-3d calls=%-7d transfers=%-5d evictions=%d resumes=%d\n",
			id, s.State, s.Workers, s.Calls, s.Transfers, s.Evictions, s.Resumes)
	}
	if len(ids) == 0 {
		b.WriteString("  (none)\n")
	}
	return b.String()
}
