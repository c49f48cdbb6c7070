package core

import (
	"regexp"
	"testing"

	"jungle/internal/wiretest"
)

// sessionPayloads holds the zero value of every session control-plane
// payload. They reach the gateway inside gob envelopes today (real TCP, see
// sched/gateway.go), but they are plain structs like every other payload
// and must cross kernel.Encode/Decode unchanged.
var sessionPayloads = []any{
	SessionAttachArgs{}, SessionAttachReply{}, SessionHeartbeatArgs{}, SessionHeartbeatReply{},
	SessionRunArgs{}, SessionRunReply{}, SessionStatusArgs{}, SessionStatusReply{},
	SessionDetachArgs{}, SessionDetachReply{}, SessionBusy{},
}

func TestSessionPayloadsOnTheWire(t *testing.T) {
	wiretest.CheckRegistry(t, regexp.MustCompile(`^Session.*(Args|Reply|Busy)$`), sessionPayloads)
	for _, zero := range sessionPayloads {
		wiretest.Check(t, zero)
	}
}
