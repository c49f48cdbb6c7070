//go:build race

package kernel

// raceEnabled: under the race detector sync.Pool drops a quarter of what it
// is handed, on purpose, so the free list misses and allocation counts only
// hold without it.
const raceEnabled = true
