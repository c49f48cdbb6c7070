package kernel

import (
	"runtime"
	"runtime/debug"
	"testing"
)

// listedSize is a bulk_state frame's size class: 3 MiB.
const listedSize = 3 << 20

// TestRetentionFreeListCrossesGoroutines: a frame released on one goroutine
// is the next one taken on another, whichever P each runs on — one frame
// serves a thousand round trips. With the collector off, nothing but the
// list decides which frame a take gets.
func TestRetentionFreeListCrossesGoroutines(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	toRelease, released := make(chan []byte), make(chan struct{})
	defer close(toRelease)
	go func() {
		for b := range toRelease {
			ReleaseFrame(b)
			released <- struct{}{}
		}
	}()
	first := takeFrame(listedSize)[:1]
	b := first
	for i := range 1000 {
		toRelease <- b
		<-released
		// A miss stops the run: with the collector off, every fresh frame
		// would stay on the heap.
		if b = takeFrame(listedSize)[:1]; &b[0] != &first[0] {
			t.Fatalf("round trip %d took a fresh frame, not the one released on the other goroutine", i)
		}
	}
}

// TestRetentionFreeListCollected: the list holds a frame only weakly, so a
// listed frame nothing else reaches is gone after the collections
// heap_live_mb is read behind, and the next take is fresh.
func TestRetentionFreeListCollected(t *testing.T) {
	b := takeFrame(listedSize)[:1]
	b[0] = 0x5A
	runtime.GC()
	var held, collected runtime.MemStats
	runtime.ReadMemStats(&held)
	ReleaseFrame(b)
	b = nil
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&collected)
	if drop := int64(held.HeapAlloc) - int64(collected.HeapAlloc); drop < listedSize*9/10 {
		t.Errorf("two collections freed %d bytes of heap, want the listed %d-byte frame", drop, listedSize)
	}
	if next := takeFrame(listedSize)[:1]; next[0] == 0x5A {
		t.Error("the frame listed before two collections was taken again")
	}
}

// TestRetentionFreeListReleaseAllocatesNothing: once the list holds a frame,
// a take and a release allocate nothing — the release reuses the box the take
// emptied.
func TestRetentionFreeListReleaseAllocatesNothing(t *testing.T) {
	ReleaseFrame(takeFrame(listedSize))
	if n := testing.AllocsPerRun(100, func() { ReleaseFrame(takeFrame(listedSize)) }); n != 0 {
		t.Errorf("take and release: %v allocations, want 0", n)
	}
}
