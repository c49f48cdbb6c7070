package mpisim

import (
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"
)

func TestGangCollectives(t *testing.T) {
	const size = 4
	w := LocalGangs(size, time.Millisecond)
	err := w.Run(func(g *Gang) error {
		sum, err := AllreduceSum(g, []float64{float64(g.ID() + 1)})
		if err != nil {
			return err
		}
		if sum[0] != 1+2+3+4 {
			t.Errorf("rank %d: allreduce sum = %v", g.ID(), sum[0])
		}
		blobs, err := AllgatherBytes(g, []byte{byte(g.ID()), byte(g.ID())})
		if err != nil {
			return err
		}
		if len(blobs) != size {
			t.Errorf("rank %d: %d blobs", g.ID(), len(blobs))
		}
		for p, b := range blobs {
			if len(b) != 2 || b[0] != byte(p) {
				t.Errorf("rank %d: blob %d = %v", g.ID(), p, b)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// The collectives exchanged real messages: every clock advanced.
	for _, g := range w.gangs {
		if g.Clock().Now() == 0 {
			t.Fatalf("rank %d clock did not advance", g.ID())
		}
	}
	// A gang of one hands its blob back as it came.
	b := []byte{7}
	if got, err := AllgatherBytes(LocalGangs(1, 0).gangs[0], b); err != nil || &got[0][0] != &b[0] {
		t.Fatalf("a gang of one copied its blob (%v)", err)
	}
}

// TestGangBrokenFailsFast: after a link failure every subsequent
// collective fails immediately with ErrGangBroken instead of deadlocking
// on the lost peer.
func TestGangBrokenFailsFast(t *testing.T) {
	g := LocalGangs(2, 0).gangs[0]
	g.links[1].Close() // rank 1's worker "dies"
	if err := g.Send(1, []byte("x")); err == nil {
		t.Fatal("send on closed link succeeded")
	}
	g.mu.Lock()
	err := g.broken
	g.mu.Unlock()
	if !errors.Is(err, ErrGangBroken) {
		t.Fatalf("sticky error %v, want ErrGangBroken", err)
	}
	if _, err := AllreduceSum(g, []float64{1}); !errors.Is(err, ErrGangBroken) {
		t.Fatalf("collective after break: %v, want ErrGangBroken", err)
	}
}

func TestGangValidation(t *testing.T) {
	if _, err := NewGang(2, 2, make([]Link, 2)); err == nil {
		t.Fatal("out-of-range rank accepted")
	}
	a, _ := localPair(0)
	if _, err := NewGang(0, 2, []Link{a, nil}); err == nil {
		t.Fatal("bad link table accepted")
	}
}

// TestOwnershipCollectiveFanOut: links hand the receiver the very slice
// that was sent, so a collective that sends one buffer to several ranks
// (the packed allgather result) must give each its own clone. Every rank
// scribbles over what it received while the others are still reading
// theirs; a shared buffer shows up as wrong bytes here and as a data race
// under -race.
func TestOwnershipCollectiveFanOut(t *testing.T) {
	const size = 4
	scribble := func(b []byte) {
		for i := range b {
			b[i] = 0xFF
		}
	}
	// In-memory links: no copy anywhere below the collective.
	err := LocalGangs(size, 0).Run(func(g *Gang) error {
		for round := 0; round < 50; round++ {
			blobs, err := AllgatherBytes(g, []byte{byte(g.ID()), byte(round)})
			if err != nil {
				return err
			}
			for p, b := range blobs {
				if len(b) != 2 || b[0] != byte(p) || b[1] != byte(round) {
					t.Errorf("rank %d round %d: blob %d = %v", g.ID(), round, p, b)
				}
			}
			for _, b := range blobs {
				scribble(b)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestOwnershipFloatCollectives: a float collective sends a part as a view
// of its sender's x and its broadcast as one buffer every receiver reads,
// which holds only while the collective runs. As soon as each call returns,
// every rank scribbles over its x and over what it got back, while the
// other ranks may still be reading; memory a collective hands back to its
// caller while a peer still reads it shows up as a wrong result here and as
// a data race under -race. Over vnet (a World of 8) and in-memory links.
func TestOwnershipFloatCollectives(t *testing.T) {
	_, world := clusterWorld(t, 8)
	local := LocalGangs(4, 0)
	t.Cleanup(local.Close)
	for _, w := range []*World{world, local} {
		if err := w.Run(func(g *Gang) error { return scribbleRounds(t, g, 50) }); err != nil {
			t.Fatal(err)
		}
	}
}

// scribbleRounds runs every float collective rounds times on one rank and
// checks each result exactly before it overwrites the call's input and
// output. A wrong value is reported, not returned: a rank that left early
// would strand the others inside a collective.
func scribbleRounds(t *testing.T, g *Gang, rounds int) error {
	const n = 37 // not a multiple of any gang size here: uneven slabs
	id, size := g.ID(), g.Size()
	lo, hi := Slab(n, id, size)
	// val is element i of round k's data; every sum below is exact.
	val := func(k, i int) float64 { return float64(k) + float64(i)/8 }
	rows := func(k int, dst []float64) []float64 {
		for i := lo; i < hi; i++ {
			dst[i-lo] = val(k, i)
		}
		return dst
	}
	scribble := func(xs ...[]float64) {
		for _, x := range xs {
			for i := range x {
				x[i] = -1
			}
		}
	}
	check := func(k int, what string, got []float64, want func(i int) float64) {
		for i, v := range got {
			if v != want(i) {
				t.Errorf("rank %d of %d round %d: %s element %d = %v, want %v", id, size, k, what, i, v, want(i))
				return
			}
		}
	}
	for k := 0; k < rounds; k++ {
		x := rows(k, make([]float64, hi-lo))
		if got, err := AllgatherFloats(g, x, nil); err != nil {
			return err
		} else if got != n {
			t.Errorf("rank %d round %d: length-only gather of %d floats, want %d", id, k, got, n)
		}
		scribble(x)

		a := make([]float64, n)
		rows(k, a[lo:hi])
		if got, err := AllgatherFloats(g, a[lo:hi], a); err != nil {
			return err
		} else if got != n {
			t.Errorf("rank %d round %d: in-place gather of %d floats, want %d", id, k, got, n)
		}
		check(k, "in-place gather", a, func(i int) float64 { return val(k, i) })
		scribble(a)

		x = rows(k, make([]float64, hi-lo))
		all, err := g.AllgatherFloats(x)
		if err != nil {
			return err
		}
		if len(all) != n {
			t.Errorf("rank %d round %d: gathered %d floats, want %d", id, k, len(all), n)
		}
		check(k, "gather", all, func(i int) float64 { return val(k, i) })
		scribble(x, all)

		// Rank p contributes val(k+p, i): the sum is size*val(k, i) plus
		// i-independent sum(p), the maximum the last rank's.
		x = make([]float64, 5)
		for i := range x {
			x[i] = val(k+id, i)
		}
		sum, err := AllreduceSum(g, x)
		if err != nil {
			return err
		}
		check(k, "sum", sum, func(i int) float64 { return float64(size)*val(k, i) + float64(size*(size-1)/2) })
		scribble(x, sum)
		for i := range x {
			x[i] = val(k+id, i)
		}
		top, err := AllreduceMax(g, x)
		if err != nil {
			return err
		}
		check(k, "max", top, func(i int) float64 { return val(k+size-1, i) })
		scribble(x, top)

		root := k % size
		x = nil
		if id == root {
			x = rows(k, make([]float64, hi-lo))
		}
		got, err := BcastFloats(g, root, x)
		if err != nil {
			return err
		}
		rlo, rhi := Slab(n, root, size)
		if len(got) != rhi-rlo {
			t.Errorf("rank %d round %d: broadcast of %d floats, want %d", id, k, len(got), rhi-rlo)
		}
		check(k, "broadcast", got, func(i int) float64 { return val(k, rlo+i) })
		scribble(x, got)
	}
	return nil
}

// TestAllgatherFloatsInPlace: every rank holds the full array with only its
// own slab current, passes the slab as x and the array as dst, and ends with
// the whole array current in the same memory — for uneven and empty slabs.
// A nil dst gets the gather's length and nothing is decoded.
func TestAllgatherFloatsInPlace(t *testing.T) {
	for _, cuts := range [][]int{{0, 3, 5, 7}, {0, 0, 4, 4, 9}, {0, 1, 2, 3, 4, 5, 6, 7, 1000}} {
		size, n := len(cuts)-1, cuts[len(cuts)-1]
		err := LocalGangs(size, 0).Run(func(g *Gang) error {
			lo, hi := CutRange(cuts, g.ID(), n, size)
			a := make([]float64, n)
			stale := func() {
				for i := range a {
					if i < lo || i >= hi {
						a[i] = -1
					}
				}
			}
			stale()
			for i := lo; i < hi; i++ {
				a[i] = float64(i) * 0.5
			}
			for round := 0; round < 3; round++ {
				got, err := AllgatherFloats(g, a[lo:hi], a)
				if err != nil {
					return err
				}
				if got != n {
					t.Errorf("cuts %v rank %d: gathered %d floats, want %d", cuts, g.ID(), got, n)
					return nil
				}
				for i, v := range a {
					if v != float64(i)*0.5 {
						t.Errorf("cuts %v rank %d: element %d = %v", cuts, g.ID(), i, v)
						return nil
					}
				}
			}
			stale()
			got, err := AllgatherFloats(g, a[lo:hi], nil)
			if err != nil {
				return err
			}
			if got != n {
				t.Errorf("cuts %v rank %d: gathered %d floats into nil, want %d", cuts, g.ID(), got, n)
			}
			for i, v := range a {
				if (i < lo || i >= hi) && v != -1 {
					t.Errorf("cuts %v rank %d: a length-only gather wrote element %d", cuts, g.ID(), i)
					return nil
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

// gatherRounds runs rounds in-place allgathers of n floats on every rank of
// an 8-rank gang over in-memory links and returns the allocations per
// collective, summed over the ranks.
func gatherRounds(tb testing.TB, n, rounds int) float64 {
	const size = 8
	w := LocalGangs(size, 0)
	arrays := make([][]float64, size)
	for i := range arrays {
		arrays[i] = make([]float64, n)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err := w.Run(func(g *Gang) error {
		a := arrays[g.ID()]
		lo, hi := Slab(n, g.ID(), size)
		for round := 0; round < rounds; round++ {
			got, err := AllgatherFloats(g, a[lo:hi], a)
			if err != nil {
				return err
			}
			if got != n {
				return fmt.Errorf("rank %d gathered %d floats, want %d", g.ID(), got, n)
			}
		}
		return nil
	})
	runtime.ReadMemStats(&after)
	if err != nil {
		tb.Fatal(err)
	}
	return float64(after.Mallocs-before.Mallocs) / float64(rounds)
}

// TestAllgatherAllocGate: an in-place allgather over 8 ranks allocates one
// message and nothing else — the root's gathered result, which every
// receiver reads from the same buffer, while each part travels as a view of
// its sender's slab. It used to encode every part and clone the result for
// each receiver, and before that decoded every part and the result into
// fresh slices on top.
func TestAllgatherAllocGate(t *testing.T) {
	const want = 1
	if got := gatherRounds(t, 1000, 200); got > want+1 { // +1: the rank goroutines, amortised
		t.Fatalf("8-rank AllgatherFloats: %.2f allocations per collective, want %d", got, want)
	}
}

func BenchmarkAllgatherFloats(b *testing.B) {
	b.ReportAllocs()
	gatherRounds(b, 1000, b.N)
}
