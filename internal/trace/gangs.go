package trace

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// Gang telemetry: a gang's ranks and the human read the same numbers.
// Every gang evolve ends with its ranks agreeing a load — per-rank slab
// widths and compute times — and whether to reshard on it; the coupler
// records each as a sample here, with the derived skew gauge (max/min rank
// compute time), and RenderGangs shows exactly what the ranks decided on.

// GangSample is one gang evolve's agreed load.
type GangSample struct {
	// At is the coupler's virtual time when the merged evolve completed.
	At time.Duration
	// Rows and Compute are per-rank (rank order): slab width and virtual
	// compute time spent in slab work during the evolve.
	Rows    []int
	Compute []time.Duration
	// Skew is max/min rank compute time (1 = perfectly balanced; 0 when
	// a rank reported no compute, meaning the window was empty).
	Skew float64
	// Action records what the ranks did with this sample: "" or
	// "reshard".
	Action string
}

// GangStats aggregates one gang's measurement history.
type GangStats struct {
	Samples  []GangSample
	MaxSkew  float64
	LastSkew float64
	Reshards int
}

// RecordGangSample appends one agreed load for the named gang (the
// coupler names models kind/resource; any stable label works).
func (r *Recorder) RecordGangSample(gang string, s GangSample) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.gangs == nil {
		r.gangs = make(map[string]*GangStats)
	}
	g := r.gangs[gang]
	if g == nil {
		g = &GangStats{}
		r.gangs[gang] = g
	}
	g.Samples = append(g.Samples, s)
	g.LastSkew = s.Skew
	if s.Skew > g.MaxSkew {
		g.MaxSkew = s.Skew
	}
	if s.Action == "reshard" {
		g.Reshards++
	}
}

// GangSkew returns the named gang's latest and maximum observed skew; ok
// is false when the gang has never been sampled.
func (r *Recorder) GangSkew(gang string) (last, max float64, ok bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	g := r.gangs[gang]
	if g == nil {
		return 0, 0, false
	}
	return g.LastSkew, g.MaxSkew, true
}

// GangRow is one line of the gang-skew table.
type GangRow struct {
	Gang  string
	Stats GangStats
}

// GangTable returns all sampled gangs sorted by name.
func (r *Recorder) GangTable() []GangRow {
	r.mu.Lock()
	defer r.mu.Unlock()
	rows := make([]GangRow, 0, len(r.gangs))
	for name, g := range r.gangs {
		cp := *g
		cp.Samples = make([]GangSample, len(g.Samples))
		for i, s := range g.Samples {
			s.Rows = append([]int(nil), s.Rows...)
			s.Compute = append([]time.Duration(nil), s.Compute...)
			cp.Samples[i] = s
		}
		rows = append(rows, GangRow{Gang: name, Stats: cp})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].Gang < rows[j].Gang })
	return rows
}

// RenderGangs renders the skew-gauge view: one line per gang with the
// latest per-rank row counts, the latest and worst skew, and how often
// the ranks resharded.
func (r *Recorder) RenderGangs() string {
	rows := r.GangTable()
	var b strings.Builder
	fmt.Fprintf(&b, "%-28s %7s %8s %8s %9s  %s\n",
		"GANG", "EVOLVES", "SKEW", "MAXSKEW", "RESHARDS", "ROWS")
	for _, row := range rows {
		g := row.Stats
		rowsStr := "-"
		if n := len(g.Samples); n > 0 && len(g.Samples[n-1].Rows) > 0 {
			parts := make([]string, len(g.Samples[n-1].Rows))
			for i, w := range g.Samples[n-1].Rows {
				parts[i] = fmt.Sprintf("%d", w)
			}
			rowsStr = strings.Join(parts, "/")
		}
		fmt.Fprintf(&b, "%-28s %7d %8.2f %8.2f %9d  %s\n",
			row.Gang, len(g.Samples), g.LastSkew, g.MaxSkew, g.Reshards, rowsStr)
	}
	return b.String()
}
