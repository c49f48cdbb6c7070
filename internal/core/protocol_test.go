package core

import (
	"regexp"
	"testing"

	"jungle/internal/wiretest"
)

// sessionPayloads holds the zero value of every session control-plane
// payload. They cross real TCP inside the gateway's envelopes (see
// sched/gateway.go) through kernel.Encode/Decode, like every other payload.
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

// TestManifestOnTheWire: a manifest is a session snapshot and the core of
// a run file, encoded with kernel.Encode.
func TestManifestOnTheWire(t *testing.T) {
	wiretest.Check(t, Manifest{})
}
