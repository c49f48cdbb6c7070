package trace

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// Per-link overlay health: the bulk-transfer outcome counters per directed
// host pair, plus the daemon store's checkpoint-size and restore-latency
// gauges. RenderHealth is the roll-up view.

// Transfer-outcome kinds recorded per link (see core's transfer paths).
const (
	LinkDirect   = "direct"
	LinkHairpin  = "hairpin"
	LinkFallback = "fallback"
)

// LinkTransfers counts bulk-transfer outcomes over one directed link.
type LinkTransfers struct {
	Direct, Hairpin, Fallback int
}

func (t *LinkTransfers) add(kind string) {
	switch kind {
	case LinkDirect:
		t.Direct++
	case LinkHairpin:
		t.Hairpin++
	case LinkFallback:
		t.Fallback++
	}
}

// RecordLinkTransfer counts one bulk-transfer outcome on the directed
// from->to link. kind is one of the Link* constants.
func (r *Recorder) RecordLinkTransfer(from, to, kind string) {
	r.mu.Lock()
	if r.linkXfer == nil {
		r.linkXfer = make(map[[2]string]*LinkTransfers)
	}
	t := r.linkXfer[[2]string{from, to}]
	if t == nil {
		t = &LinkTransfers{}
		r.linkXfer[[2]string{from, to}] = t
	}
	t.add(kind)
	r.mu.Unlock()
}

// LinkHealthRow is one directed link's transfer-outcome counters.
type LinkHealthRow struct {
	From, To  string
	Transfers LinkTransfers
}

// LinkHealthTable returns the transfer counters of every observed link,
// sorted by (from, to).
func (r *Recorder) LinkHealthTable() []LinkHealthRow {
	r.mu.Lock()
	rows := make([]LinkHealthRow, 0, len(r.linkXfer))
	for k, t := range r.linkXfer {
		rows = append(rows, LinkHealthRow{From: k[0], To: k[1], Transfers: *t})
	}
	r.mu.Unlock()
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].From != rows[j].From {
			return rows[i].From < rows[j].From
		}
		return rows[i].To < rows[j].To
	})
	return rows
}

// StoreStats gauges one model's checkpoint/restore traffic: snapshot sizes
// and restore latencies.
type StoreStats struct {
	Checkpoints int
	LastRaw     int   // latest blob's bytes (snapshots cross the wire raw)
	TotalRaw    int64 // cumulative bytes stored
	Restores    int
	LastRestore time.Duration // latest restore's virtual latency
	RestoreHist Histogram     // restore latency, nanoseconds
}

// RecordCheckpoint gauges one checkpoint snapshot reaching the coupler:
// raw is the snapshot's size.
func (r *Recorder) RecordCheckpoint(model string, raw int) {
	r.mu.Lock()
	st := r.storeStats(model)
	st.Checkpoints++
	st.LastRaw = raw
	st.TotalRaw += int64(raw)
	r.mu.Unlock()
}

// RecordRestore gauges one model restore from its snapshot: latency is
// the virtual time the restore took end to end.
func (r *Recorder) RecordRestore(model string, latency time.Duration) {
	r.mu.Lock()
	st := r.storeStats(model)
	st.Restores++
	st.LastRestore = latency
	st.RestoreHist.Record(int64(latency))
	r.mu.Unlock()
}

// storeStats returns (creating if needed) the gauges for one model
// label. Callers hold r.mu.
func (r *Recorder) storeStats(model string) *StoreStats {
	if r.store == nil {
		r.store = make(map[string]*StoreStats)
	}
	st := r.store[model]
	if st == nil {
		st = &StoreStats{}
		r.store[model] = st
	}
	return st
}

// StoreRow is one model's store gauges.
type StoreRow struct {
	Model string
	Stats StoreStats
}

// StoreTable returns all store gauges (deep copies), sorted by model.
func (r *Recorder) StoreTable() []StoreRow {
	r.mu.Lock()
	rows := make([]StoreRow, 0, len(r.store))
	for m, st := range r.store {
		rows = append(rows, StoreRow{Model: m, Stats: *st})
	}
	r.mu.Unlock()
	sort.Slice(rows, func(i, j int) bool { return rows[i].Model < rows[j].Model })
	return rows
}

// RenderHealth renders the overlay health roll-up: per-link transfer
// outcomes, then the store gauges.
func (r *Recorder) RenderHealth() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-28s %-28s  %s\n", "FROM", "TO", "TRANSFERS(dir/hp/fb)")
	for _, row := range r.LinkHealthTable() {
		t := row.Transfers
		fmt.Fprintf(&b, "%-28s %-28s  %d/%d/%d\n", row.From, row.To, t.Direct, t.Hairpin, t.Fallback)
	}
	if rows := r.StoreTable(); len(rows) > 0 {
		fmt.Fprintf(&b, "\n%-14s %6s %12s %9s %14s\n",
			"STORE", "CKPTS", "LAST-RAW", "RESTORES", "RESTORE(p50/p99/max)")
		for _, row := range rows {
			st := row.Stats
			fmt.Fprintf(&b, "%-14s %6d %12d %9d %14s\n",
				row.Model, st.Checkpoints, st.LastRaw, st.Restores, st.RestoreHist.summary())
		}
	}
	return b.String()
}
