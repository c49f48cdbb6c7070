package sched

import (
	"testing"

	"jungle/internal/wiretest"
)

// The gateway's frames cross real TCP in the wire codec: they keep the
// properties every payload has.
func TestPayloadsOnTheWire(t *testing.T) {
	for _, zero := range []any{Envelope{}, ReplyFrame{}} {
		wiretest.Check(t, zero)
	}
}
