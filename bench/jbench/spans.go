package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed interval the driver recorded around a call it made into
// a layer. Times are nanoseconds since the recorder was created.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"` // index of the causing span, -1 for a root
	Op     int    `json:"op"`     // op the span belongs to, -1 for set-up
}

// spanRec keeps spans in memory until the run ends. Only the single client
// goroutine records, so it takes no lock. A nil recorder records nothing:
// the untraced run passes nil and pays one comparison per call.
type spanRec struct {
	t0    time.Time
	spans []span
	// scope is the span that set-up and teardown spans hang under: the
	// harness points it at the current "setup" span.
	scope int
}

func newSpanRec() *spanRec { return &spanRec{t0: time.Now(), scope: -1} }

func (r *spanRec) now() int64 { return int64(time.Since(r.t0)) }

// begin opens a span and returns its index (-1 from a nil recorder).
func (r *spanRec) begin(name string, parent, op int) int {
	if r == nil {
		return -1
	}
	r.spans = append(r.spans, span{Name: name, Start: r.now(), End: -1, Parent: parent, Op: op})
	return len(r.spans) - 1
}

// under opens a set-up or teardown span below the current scope.
func (r *spanRec) under(name string) int {
	if r == nil {
		return -1
	}
	return r.begin(name, r.scope, -1)
}

// end closes a span; closing a closed span keeps its first end.
func (r *spanRec) end(id int) {
	if r == nil || id < 0 || r.spans[id].End >= 0 {
		return
	}
	r.spans[id].End = r.now()
}

// selfTimes returns, per span, its duration minus the part of its interval
// that its child spans cover (overlapping children are counted once).
func selfTimes(spans []span) []int64 {
	kids := make(map[int][]int)
	for i, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		ks := kids[i]
		sort.Slice(ks, func(a, b int) bool { return spans[ks[a]].Start < spans[ks[b]].Start })
		covered, edge := int64(0), s.Start
		for _, k := range ks {
			lo, hi := spans[k].Start, spans[k].End
			if lo < edge {
				lo = edge
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[i] = s.End - s.Start - covered
	}
	return self
}

// perOp sums, for every op that has at least one span of the given name,
// those spans' durations in microseconds.
func perOp(spans []span, name string) []float64 {
	sums := make(map[int]float64)
	var order []int
	for _, s := range spans {
		if s.Name != name || s.Op < 0 {
			continue
		}
		if _, ok := sums[s.Op]; !ok {
			order = append(order, s.Op)
		}
		sums[s.Op] += float64(s.End-s.Start) / 1e3
	}
	out := make([]float64, len(order))
	for i, op := range order {
		out[i] = sums[op]
	}
	return out
}

// durations returns the microsecond durations of every span of a name,
// set-up spans included.
func durations(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e3)
		}
	}
	return out
}

// write stores the spans as one JSON array.
func (r *spanRec) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(r.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
