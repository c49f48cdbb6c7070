package wire

import (
	"fmt"
	"slices"
	"testing"
)

// TestRetentionNamesRing: a reader that decodes 10 000 distinct circuit
// keys through one Names ring holds namesLen of them, all among the last
// namesLen decoded, however many it decoded.
func TestRetentionNamesRing(t *testing.T) {
	type frame struct {
		Kind    byte
		Circuit string
	}
	const keys = 10_000
	key := func(i int) string { return fmt.Sprint("das4-vu.node00:20000/", i) }
	var n Names
	var f frame
	for i := range keys {
		if err := n.Unmarshal(Marshal(frame{Kind: 9, Circuit: key(i)}), &f); err != nil {
			t.Fatal(err)
		}
	}
	if f.Circuit != key(keys-1) {
		t.Fatalf("last decode read %q, want %q", f.Circuit, key(keys-1))
	}
	var recent []string
	for i := keys - namesLen; i < keys; i++ {
		recent = append(recent, key(i))
	}
	for _, s := range n.ring {
		if !slices.Contains(recent, s) {
			t.Fatalf("after %d keys the ring holds %q, want %d entries among the last %d keys, %q", keys, n.ring, namesLen, namesLen, recent)
		}
	}
}
