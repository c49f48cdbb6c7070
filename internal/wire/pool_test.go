package wire

import (
	"bytes"
	"math"
	"sync"
	"testing"
)

// TestPoolKeepsNoBulkBuffer: Marshal parks no buffer anywhere. A message is
// sized exactly and encoded into one allocation of that size, whatever its
// columns (floats, vectors, keys, a string) and the room in front of them,
// so the capacity the transport is handed is the message's length.
func TestPoolKeepsNoBulkBuffer(t *testing.T) {
	type bulk struct {
		Name string
		Mass []float64
		Pos  [][3]float64
		Key  []uint64
		N    int
	}
	const n = 1 << 14
	v := bulk{Name: "stars", Mass: make([]float64, n), Pos: make([][3]float64, n), Key: make([]uint64, n), N: n}
	for i := range n {
		x := float64(i)
		v.Mass[i], v.Pos[i], v.Key[i] = x+0.5, [3]float64{math.Sin(x), 0, -x}, uint64(i)<<(i%64)
	}
	for _, room := range []int{0, 39} {
		enc := MarshalBehind(room, &v)
		if cap(enc) != len(enc) {
			t.Errorf("bulk message of %d bytes handed out in a %d-byte buffer", len(enc), cap(enc))
		}
		var back bulk
		if err := Unmarshal(enc[room:], &back); err != nil || back.N != n || back.Mass[77] != v.Mass[77] ||
			back.Pos[n-1] != v.Pos[n-1] || back.Key[n-1] != v.Key[n-1] {
			t.Fatalf("bulk round trip behind %d bytes: %d floats, %v", room, len(back.Mass), err)
		}
	}
}

// TestOwnershipMarshalScratch: MarshalBehind encodes into a pooled scratch
// and copies the encoding out, so the scratch is never the message. Each
// message keeps its bytes while later ones are encoded into the same
// scratch, from any goroutine, and its capacity is its length. A message
// past the cap leaves no scratch in the pool, and the next small one still
// costs only its own allocation.
func TestOwnershipMarshalScratch(t *testing.T) {
	type msg struct {
		Name string
		Pos  [][3]float64
		Key  []uint64
	}
	a := msg{Name: "a", Pos: [][3]float64{{1.5, -2, 3}}, Key: []uint64{1, 1 << 60}}
	b := msg{Name: "b", Pos: make([][3]float64, 100), Key: []uint64{7}}
	for i := range b.Pos {
		b.Pos[i] = [3]float64{math.Pi * float64(i), 0, -1}
	}
	wantA, wantB := Append(nil, &a), Append(nil, &b)
	var wg sync.WaitGroup
	for room := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 100 {
				first, second, third := MarshalBehind(room, &a), MarshalBehind(room, &b), MarshalBehind(room, &a)
				for i, m := range [][2][]byte{{first, wantA}, {second, wantB}, {third, wantA}} {
					got, want := m[0], m[1]
					if cap(got) != len(got) || !bytes.Equal(got[:room], make([]byte, room)) || !bytes.Equal(got[room:], want) {
						t.Errorf("message %d of A, B, A behind %d bytes: %d bytes in a %d-byte buffer, not Append's %d behind zeros",
							i+1, room, len(got), cap(got), len(want))
						return
					}
				}
			}
		}()
	}
	wg.Wait()

	// Past the cap by its columns, and by a string the column bound does not see.
	for _, big := range []msg{{Key: make([]uint64, scratchCap)}, {Name: string(make([]byte, 2*scratchCap))}} {
		MarshalBehind(0, &big)
		s := scratch.Get().(*[]byte)
		if cap(*s) > scratchCap {
			t.Errorf("the pool kept a %d-byte scratch, past its %d-byte cap", cap(*s), scratchCap)
		}
		scratch.Put(s)
	}
	if raceEnabled {
		return // the detector drops a quarter of what a sync.Pool is handed
	}
	if n := testing.AllocsPerRun(100, func() { MarshalBehind(24, &a) }); n != 1 {
		t.Errorf("a small message after a large one: %v allocations, want the message alone", n)
	}
}
