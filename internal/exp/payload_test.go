package exp

import (
	"testing"

	"jungle/internal/wiretest"
)

// A run file, a session snapshot and a thin client's session_run payload
// and reply are encoded with kernel.Encode: they keep the properties every
// payload has.
func TestPayloadsOnTheWire(t *testing.T) {
	for _, zero := range []any{RunCheckpoint{}, SessionWork{}, SessionReport{}} {
		wiretest.Check(t, zero)
	}
}
