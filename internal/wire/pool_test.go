package wire

import (
	"math"
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
