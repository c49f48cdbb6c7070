// Package gostack grows a goroutine's stack ahead of its work. A goroutine
// starts on a small stack (2 KB, more once the runtime has seen deeper
// goroutines), and the runtime copies the whole stack to one twice its
// size each time a call runs past the end: a goroutine that
// reaches 8 KB in steps pays two copies, and pays them again at its next
// start, since a grown stack is freed when its goroutine exits. Grow, the
// first call of such a goroutine, takes 8 KB in one copy while the stack
// holds two frames.
package gostack

// growBytes is the frame Grow takes: 4 KB grows any stack under 8 KB
// straight to 8 KB, however little the caller's frames hold. A sweep of
// session_churn's op_wall_us (median over seeds 1–4, µs; the parent read
// 122.6) read 109.4 at 1 KB (a 4 KB stack), 101.3 at 3 KB and 104.0 at
// 4 KB (both 8 KB), 105.3 at 8 KB (16 KB) and 109.6 at 16 KB (32 KB); six
// alternating pairs of 3 KB against 4 KB then read 107.6 against 106.5. A
// 3 KB frame reaches 8 KB only with the caller's frames and the stack
// guard on top, so the sweep's tie goes to 4 KB.
const growBytes = 4 << 10

// Grow makes the runtime grow the calling goroutine's stack to 8 KB now,
// while copying it is cheap. Call it first in a goroutine that a profile
// shows growing its stack, and nowhere else: an unneeded call costs a copy.
//
//go:noinline
func Grow() {
	var buf [growBytes]byte
	touch(&buf)
}

// touch takes buf's address in a call that is not inlined, so the compiler
// keeps and zeroes the array on Grow's frame.
//
//go:noinline
func touch(*[growBytes]byte) {}
