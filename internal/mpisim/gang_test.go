package mpisim

import (
	"errors"
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
		return Barrier(g)
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
// (Bcast, the packed allgather result) must give each its own clone, and
// Bcast must leave root's buffer root's. Every rank scribbles over what it
// received while the others are still reading theirs; a shared buffer
// shows up as wrong bytes here and as a data race under -race.
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
			var mine []byte
			if g.ID() == 0 {
				mine = []byte{1, 2, 3, byte(round)}
			}
			got, err := Bcast(g, 0, mine)
			if err != nil {
				return err
			}
			if len(got) != 4 || got[0] != 1 || got[1] != 2 || got[2] != 3 || got[3] != byte(round) {
				t.Errorf("rank %d round %d: bcast delivered %v", g.ID(), round, got)
			}
			if g.ID() != 0 {
				scribble(got)
			}
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
