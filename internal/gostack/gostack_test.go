package gostack

import (
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sync"
	"testing"
)

// stackPerGoroutine starts n goroutines that run first (if it is set) and
// park, and returns the stack memory each holds while parked — the growth
// of runtime.MemStats.StackInuse over n — and the size of the stack the
// runtime started them on. The collection it starts with frees the stacks
// that exited goroutines and the stack caches still hold, so the
// goroutines start on stacks of their own.
func stackPerGoroutine(n int, first func()) (held, start uint64) {
	runtime.GC()
	size := []metrics.Sample{{Name: "/gc/stack/starting-size:bytes"}}
	metrics.Read(size)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.StackInuse
	var started sync.WaitGroup
	park := make(chan struct{})
	var done sync.WaitGroup
	started.Add(n)
	done.Add(n)
	for i := 0; i < n; i++ {
		go func() {
			defer done.Done()
			if first != nil {
				first()
			}
			started.Done()
			<-park
		}()
	}
	started.Wait()
	runtime.ReadMemStats(&ms)
	close(park)
	done.Wait()
	return (ms.StackInuse - before) / uint64(n), size[0].Value.Uint64()
}

// TestGrowTakesEightKB holds Grow to its one job: a goroutine that calls it
// parks on an 8 KB stack, and one that does not on the runtime's starting
// stack (2 KB, or 4 KB once the runtime has seen deeper goroutines). A
// compiler that dropped Grow's array would leave the first on the starting
// stack. Collection is off while the goroutines park, since it would
// shrink the grown stacks. A stack is a power of two, and a goroutine may
// take one that was counted before it started (a free goroutine's, or a
// free slot in a stack span), so a reading can fall a few hundred bytes
// short of what the goroutines hold: more than 6 KB each is 8 KB each.
func TestGrowTakesEightKB(t *testing.T) {
	const n, slack = 2000, 512
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	plain, start := stackPerGoroutine(n, nil)
	grown, _ := stackPerGoroutine(n, Grow)
	t.Logf("stack per goroutine: %d B plain (starting stack %d B), %d B after Grow", plain, start, grown)
	if start >= 8<<10 {
		t.Skipf("the runtime starts goroutines on %d B already", start)
	}
	if plain > start+slack {
		t.Errorf("a goroutine that does not call Grow holds %d B of stack, want its starting stack, %d B", plain, start)
	}
	if grown <= 6<<10 {
		t.Errorf("a goroutine that called Grow holds %d B of stack, want 8 KB", grown)
	}
}
