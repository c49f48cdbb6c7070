package trace

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// Per-link overlay health: the goodput samples the SmartSockets prober
// already reports (trace.RecordGoodput) joined with the bulk-transfer
// outcome counters per directed host pair, plus the daemon store's
// checkpoint-size and restore-latency gauges and the deployment's
// capacity gauges. RenderHealth is the roll-up view; rows whose last
// probe is older than the staleness horizon are marked STALE.

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

// DefaultStaleAfter is the staleness horizon RenderHealth applies: a
// link whose last goodput probe is older than this (in virtual time) is
// marked STALE — its measurement may no longer describe the link.
const DefaultStaleAfter = time.Minute

// LinkHealthRow is one directed link's health: the latest goodput sample
// (HasGoodput false when the link was never probed), staleness against
// the caller's clock, and the transfer-outcome counters.
type LinkHealthRow struct {
	From, To   string
	Goodput    GoodputSample
	HasGoodput bool
	Stale      bool
	Transfers  LinkTransfers
}

// LinkHealthTable joins goodput samples and transfer counters over the
// union of observed links, sorted by (from, to). now is the caller's
// virtual clock; a negative now disables staleness marking (callers
// without a clock, e.g. a multi-session daemon).
func (r *Recorder) LinkHealthTable(now, staleAfter time.Duration) []LinkHealthRow {
	r.mu.Lock()
	keys := make(map[[2]string]bool, len(r.goodput)+len(r.linkXfer))
	for k := range r.goodput {
		keys[k] = true
	}
	for k := range r.linkXfer {
		keys[k] = true
	}
	rows := make([]LinkHealthRow, 0, len(keys))
	for k := range keys {
		row := LinkHealthRow{From: k[0], To: k[1]}
		if s, ok := r.goodput[k]; ok {
			row.Goodput, row.HasGoodput = s, true
			row.Stale = now >= 0 && now-s.At > staleAfter
		}
		if t := r.linkXfer[k]; t != nil {
			row.Transfers = *t
		}
		rows = append(rows, row)
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

// StoreStats gauges one model's checkpoint/restore traffic through the
// daemon store: blob sizes and restore latencies.
type StoreStats struct {
	Checkpoints int
	LastRaw     int   // latest blob's bytes (snapshots cross the wire raw)
	TotalRaw    int64 // cumulative bytes stored
	Restores    int
	LastRestore time.Duration // latest restore's virtual latency
	RestoreHist Histogram     // restore latency, nanoseconds
}

// RecordCheckpoint gauges one checkpoint blob landing in the daemon
// store: raw is the snapshot's size.
func (r *Recorder) RecordCheckpoint(model string, raw int) {
	r.mu.Lock()
	st := r.storeStats(model)
	st.Checkpoints++
	st.LastRaw = raw
	st.TotalRaw += int64(raw)
	r.mu.Unlock()
}

// RecordRestore gauges one model restore from the daemon store: latency
// is the virtual time the restore took end to end.
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

// RecordCapacity gauges a resource's node occupancy (the deployment
// ledger reports it on every reserve/commit/release).
func (r *Recorder) RecordCapacity(resource string, occupied, total int) {
	r.mu.Lock()
	if r.capacity == nil {
		r.capacity = make(map[string][2]int)
	}
	r.capacity[resource] = [2]int{occupied, total}
	r.mu.Unlock()
}

// CapacityRow is one resource's occupancy gauge.
type CapacityRow struct {
	Resource        string
	Occupied, Total int
}

// CapacityTable returns the latest occupancy per resource, sorted.
func (r *Recorder) CapacityTable() []CapacityRow {
	r.mu.Lock()
	rows := make([]CapacityRow, 0, len(r.capacity))
	for res, v := range r.capacity {
		rows = append(rows, CapacityRow{Resource: res, Occupied: v[0], Total: v[1]})
	}
	r.mu.Unlock()
	sort.Slice(rows, func(i, j int) bool { return rows[i].Resource < rows[j].Resource })
	return rows
}

// RenderHealth renders the overlay health roll-up: per-link goodput with
// staleness marking and transfer outcomes, then the store gauges, then
// the capacity gauges. now is the caller's virtual clock (negative
// disables staleness marking).
func (r *Recorder) RenderHealth(now time.Duration) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-28s %-28s %14s %10s %7s %6s  %s\n",
		"FROM", "TO", "GOODPUT(MB/s)", "AT(ms)", "PROBES", "STATE", "TRANSFERS(dir/hp/fb)")
	for _, row := range r.LinkHealthTable(now, DefaultStaleAfter) {
		gp, at, probes, state := "-", "-", "-", "ok"
		if row.HasGoodput {
			gp = fmt.Sprintf("%.2f", row.Goodput.BytesPerSec/1e6)
			at = fmt.Sprintf("%.1f", float64(row.Goodput.At.Microseconds())/1e3)
			probes = fmt.Sprintf("%d", row.Goodput.Probes)
			if row.Stale {
				state = "STALE"
			}
		} else {
			state = "-"
		}
		t := row.Transfers
		fmt.Fprintf(&b, "%-28s %-28s %14s %10s %7s %6s  %d/%d/%d\n",
			row.From, row.To, gp, at, probes, state, t.Direct, t.Hairpin, t.Fallback)
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
	if rows := r.CapacityTable(); len(rows) > 0 {
		fmt.Fprintf(&b, "\n%-28s %9s %6s\n", "CAPACITY", "OCCUPIED", "TOTAL")
		for _, row := range rows {
			fmt.Fprintf(&b, "%-28s %9d %6d\n", row.Resource, row.Occupied, row.Total)
		}
	}
	return b.String()
}
