package mpisim

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"
)

// runGangs executes f concurrently on every gang rank and joins errors.
func runGangs(gangs []*Gang, f func(g *Gang) error) error {
	errs := make([]error, len(gangs))
	var wg sync.WaitGroup
	for i, g := range gangs {
		wg.Add(1)
		go func(i int, g *Gang) {
			defer wg.Done()
			errs[i] = f(g)
		}(i, g)
	}
	wg.Wait()
	return errors.Join(errs...)
}

func TestGangCollectives(t *testing.T) {
	const size = 4
	gangs := LocalGangs(size, time.Millisecond)
	err := runGangs(gangs, func(g *Gang) error {
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
	for _, g := range gangs {
		if g.Clock().Now() == 0 {
			t.Fatalf("rank %d clock did not advance", g.ID())
		}
	}
}

// TestGangBrokenFailsFast: after a link failure every subsequent
// collective fails immediately with ErrGangBroken instead of deadlocking
// on the lost peer.
func TestGangBrokenFailsFast(t *testing.T) {
	gangs := LocalGangs(2, 0)
	gangs[0].links[1].Close() // rank 1's worker "dies"
	if err := gangs[0].Send(1, []byte("x")); err == nil {
		t.Fatal("send on closed link succeeded")
	}
	if err := gangs[0].Err(); !errors.Is(err, ErrGangBroken) {
		t.Fatalf("sticky error %v, want ErrGangBroken", err)
	}
	if _, err := AllreduceSum(gangs[0], []float64{1}); !errors.Is(err, ErrGangBroken) {
		t.Fatalf("collective after break: %v, want ErrGangBroken", err)
	}
}

func TestGangValidation(t *testing.T) {
	if _, err := NewGang(0, 1, []Link{nil}); err == nil {
		t.Fatal("size-1 gang accepted")
	}
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
	gangs := LocalGangs(size, 0) // in-memory links: no copy anywhere below the collective
	scribble := func(b []byte) {
		for i := range b {
			b[i] = 0xFF
		}
	}
	err := runGangs(gangs, func(g *Gang) error {
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

// TestAllgatherFloatsInPlace: every rank holds the full array with only its
// own slab current, passes the slab as x and the array as dst, and ends with
// the whole array current in the same memory — for uneven and empty slabs.
func TestAllgatherFloatsInPlace(t *testing.T) {
	for _, cuts := range [][]int{{0, 3, 5, 7}, {0, 0, 4, 4, 9}, {0, 1, 2, 3, 4, 5, 6, 7, 1000}} {
		size, n := len(cuts)-1, cuts[len(cuts)-1]
		err := runGangs(LocalGangs(size, 0), func(g *Gang) error {
			lo, hi := CutRange(cuts, g.ID(), n, size)
			a := make([]float64, n)
			for i := range a {
				a[i] = -1 // stale
			}
			for i := lo; i < hi; i++ {
				a[i] = float64(i) * 0.5
			}
			for round := 0; round < 3; round++ {
				full, err := AllgatherFloats(g, a[lo:hi], a)
				if err != nil {
					return err
				}
				if len(full) != n || (n > 0 && &full[0] != &a[0]) {
					t.Errorf("cuts %v rank %d: gathered %d floats in place %v, want %d in the caller's array",
						cuts, g.ID(), len(full), n > 0 && &full[0] == &a[0], n)
					return nil
				}
				for i, v := range a {
					if v != float64(i)*0.5 {
						t.Errorf("cuts %v rank %d: element %d = %v", cuts, g.ID(), i, v)
						return nil
					}
				}
			}
			// Without room the result is a new slice and dst is not grown into.
			full, err := AllgatherFloats(g, a[lo:hi], nil)
			if err != nil {
				return err
			}
			if len(full) != n {
				t.Errorf("cuts %v rank %d: gathered %d floats into nil, want %d", cuts, g.ID(), len(full), n)
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
	gangs := LocalGangs(size, 0)
	arrays := make([][]float64, size)
	for i := range arrays {
		arrays[i] = make([]float64, n)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err := runGangs(gangs, func(g *Gang) error {
		a := arrays[g.ID()]
		lo, hi := Slab(n, g.ID(), size)
		for round := 0; round < rounds; round++ {
			full, err := AllgatherFloats(g, a[lo:hi], a)
			if err != nil {
				return err
			}
			if len(full) != n {
				return fmt.Errorf("rank %d gathered %d floats, want %d", g.ID(), len(full), n)
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

// TestAllgatherAllocGate: an in-place allgather over 8 ranks allocates the
// messages and nothing else — seven encoded slabs, the encoded result and
// its six clones (every receiver owns what it is sent). It used to decode
// every part and the result into fresh slices on top of that.
func TestAllgatherAllocGate(t *testing.T) {
	const want = 7 + 1 + 6
	if got := gatherRounds(t, 1000, 200); got > want+1 { // +1: the rank goroutines, amortised
		t.Fatalf("8-rank AllgatherFloats: %.2f allocations per collective, want %d", got, want)
	}
}

func BenchmarkAllgatherFloats(b *testing.B) {
	b.ReportAllocs()
	gatherRounds(b, 1000, b.N)
}
