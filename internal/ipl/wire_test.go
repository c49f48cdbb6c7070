package ipl

import (
	"fmt"
	"strings"
	"testing"

	"jungle/internal/wiretest"
)

func TestRegistryMessagesOnTheWire(t *testing.T) {
	wiretest.Check(t, regMsg{})
	wiretest.Check(t, dataHeader{})
}

// TestRegistryCodecAllocGates: a registry event and a data-connection
// handshake each cost one result slice to encode and the message plus its
// two strings to decode.
func TestRegistryCodecAllocGates(t *testing.T) {
	member := Identifier{Pool: "amuse", ID: 3, Host: "das4-vu.n07", Port: 20000}
	ev := &regMsg{Kind: rEvent, Event: byte(Joined), Member: member}
	if got := testing.AllocsPerRun(200, func() {
		m, err := decodeReg(encodeReg(ev))
		if err != nil || m.Member != member {
			t.Fatalf("decoded %+v, %v", m, err)
		}
	}); got > 6 {
		t.Errorf("regMsg round trip: %v allocs, gate 6", got)
	}
	hs := &dataHeader{PortName: "requests", From: member}
	if got := testing.AllocsPerRun(200, func() {
		h, err := decodeHeader(encodeHeader(hs))
		if err != nil || *h != *hs {
			t.Fatalf("decoded %+v, %v", h, err)
		}
	}); got > 6 {
		t.Errorf("dataHeader round trip: %v allocs, gate 6", got)
	}
}

// TestIdentifierStringMatchesSprintf: a member's rendering, the daemon's
// key for it, reads as fmt.Sprintf rendered it.
func TestIdentifierStringMatchesSprintf(t *testing.T) {
	long := strings.Repeat("das4-vu.", 10) // past the rendering's 64-byte buffer
	for _, id := range []Identifier{
		{Pool: "amuse", ID: 3, Host: "das4-vu.n07", Port: 20000},
		{},
		{Pool: long, ID: -1, Host: long},
	} {
		if got, want := id.String(), fmt.Sprintf("%s/%d@%s", id.Pool, id.ID, id.Host); got != want {
			t.Errorf("Identifier.String() = %q, want %q", got, want)
		}
	}
}
