package trace

import (
	"sync"
	"testing"
)

func TestTrafficAccumulates(t *testing.T) {
	r := New()
	r.TrafficCounter("a", "b", "ipl").Add(100)
	r.TrafficCounter("a", "b", "ipl").Add(50)
	r.TrafficCounter("a", "b", "mpi").Add(10)
	if got := bytesOf(r, "a", "b", "ipl"); got != 150 {
		t.Fatalf("ipl bytes %d, want 150", got)
	}
	if got := bytesOf(r, "a", "b", ""); got != 160 {
		t.Fatalf("total bytes %d, want 160", got)
	}
	if got := bytesOf(r, "b", "a", "ipl"); got != 0 {
		t.Fatalf("reverse bytes %d, want 0", got)
	}
}

func TestTotalByClass(t *testing.T) {
	r := New()
	r.TrafficCounter("a", "b", "ipl").Add(100)
	r.TrafficCounter("c", "d", "ipl").Add(1)
	r.TrafficCounter("a", "b", "mpi").Add(10)
	totals := r.TotalByClass()
	if totals["ipl"] != 101 || totals["mpi"] != 10 {
		t.Fatalf("totals = %v", totals)
	}
}

func TestTrafficTableOrdering(t *testing.T) {
	r := New()
	r.TrafficCounter("a", "b", "ipl").Add(1)
	r.TrafficCounter("c", "d", "mpi").Add(100)
	r.TrafficCounter("e", "f", "ipl") // handed out, never added to: no row
	rows := r.TrafficTable()
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[0].Bytes != 100 {
		t.Fatalf("table not sorted by bytes desc: %+v", rows)
	}
}

func TestConcurrentRecording(t *testing.T) {
	r := New()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 500; j++ {
				r.TrafficCounter("a", "b", "ipl").Add(1)
			}
		}()
	}
	wg.Wait()
	if got := bytesOf(r, "a", "b", "ipl"); got != 4000 {
		t.Fatalf("bytes %d, want 4000", got)
	}
}

// bytesOf returns the traffic from->to for a class ("" sums all classes).
func bytesOf(r *Recorder, from, to, class string) int {
	total := 0
	for _, row := range r.TrafficTable() {
		if row.From == from && row.To == to && (class == "" || row.Class == class) {
			total += row.Bytes
		}
	}
	return total
}
