package trace

import (
	"sync"
	"testing"
)

func TestTrafficAccumulates(t *testing.T) {
	r := New()
	r.RecordTraffic("a", "b", "ipl", 100)
	r.RecordTraffic("a", "b", "ipl", 50)
	r.RecordTraffic("a", "b", "mpi", 10)
	if got := r.Bytes("a", "b", "ipl"); got != 150 {
		t.Fatalf("ipl bytes %d, want 150", got)
	}
	if got := r.Bytes("a", "b", ""); got != 160 {
		t.Fatalf("total bytes %d, want 160", got)
	}
	if got := r.Bytes("b", "a", "ipl"); got != 0 {
		t.Fatalf("reverse bytes %d, want 0", got)
	}
}

func TestTotalByClass(t *testing.T) {
	r := New()
	r.RecordTraffic("a", "b", "ipl", 100)
	r.RecordTraffic("c", "d", "ipl", 1)
	r.RecordTraffic("a", "b", "mpi", 10)
	totals := r.TotalByClass()
	if totals["ipl"] != 101 || totals["mpi"] != 10 {
		t.Fatalf("totals = %v", totals)
	}
}

func TestTrafficTableOrdering(t *testing.T) {
	r := New()
	r.RecordTraffic("a", "b", "ipl", 1)
	r.RecordTraffic("c", "d", "mpi", 100)
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
				r.RecordTraffic("a", "b", "ipl", 1)
			}
		}()
	}
	wg.Wait()
	if got := r.Bytes("a", "b", "ipl"); got != 4000 {
		t.Fatalf("bytes %d, want 4000", got)
	}
}
