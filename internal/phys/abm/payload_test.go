package abm

import (
	"testing"

	"jungle/internal/wiretest"
)

// The kind-private payloads this package sends through kernel.Encode (setup
// and method args, the snapshot's Extra blob) keep the wire properties
// every payload must have.
func TestPayloadsOnTheWire(t *testing.T) {
	for _, zero := range []any{SetupArgs{}, StepArgs{}} {
		wiretest.Check(t, zero)
	}
}
