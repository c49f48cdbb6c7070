//go:build race

package wire

// raceEnabled: the race detector drops a quarter of what a sync.Pool is
// handed and allocates on its own, so exact allocation counts only hold
// without it.
const raceEnabled = true
