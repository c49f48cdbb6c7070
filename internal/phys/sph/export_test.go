package sph

import "sync"

// countBuilds counts, from here until the returned stop, the structures the
// passes of every evolve build — "cells", "search" and "octree" — and stop
// returns the counts. The ranks of a World build from their own goroutines.
// Tests that count do not run in parallel.
func countBuilds() (stop func() map[string]int) {
	var mu sync.Mutex
	n := map[string]int{}
	testBuilt = func(what string) {
		mu.Lock()
		n[what]++
		mu.Unlock()
	}
	return func() map[string]int {
		testBuilt = nil
		mu.Lock()
		defer mu.Unlock()
		return n
	}
}
