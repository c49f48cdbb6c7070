package wire

import "testing"

// TestPoolKeepsNoBulkBuffer: a scratch buffer that grew past maxPooled is
// never parked — Marshal hands it over as the message — so nothing the
// pool gives out afterwards is larger than that.
func TestPoolKeepsNoBulkBuffer(t *testing.T) {
	type bulk struct{ X []float64 }
	v := bulk{X: make([]float64, 1<<16)}
	for i := range v.X {
		v.X[i] = float64(i) + 0.5
	}
	enc := Marshal(&v)
	var back bulk
	if err := Unmarshal(enc, &back); err != nil || len(back.X) != len(v.X) || back.X[77] != v.X[77] {
		t.Fatalf("bulk round trip: %d floats, %v", len(back.X), err)
	}
	// The column was grown once, to what its floats (3 to 4 bytes each
	// here) take, not to the 9-byte worst case and not by doubling.
	if cap(enc) > len(enc)+len(enc)/8 {
		t.Errorf("bulk message of %d bytes handed out in a %d-byte buffer", len(enc), cap(enc))
	}
	for i := 0; i < 64; i++ {
		b := scratch.Get().(*[]byte)
		if cap(*b) > maxPooled {
			t.Fatalf("pool handed out a %d-byte buffer", cap(*b))
		}
		defer scratch.Put(b)
	}
}
