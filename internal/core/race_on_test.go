//go:build race

package core

// raceEnabled: the race detector's instrumentation allocates on its own
// (it defeats the compiler's append-make elision, for one), so byte-exact
// allocation gates only hold without it.
const raceEnabled = true
