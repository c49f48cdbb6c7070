package kernel

import (
	"jungle/internal/mpisim"
)

// Gang support: a kernel may be deployed as a gang of K workers running a
// domain-decomposed instance of the same service. Each rank's service is
// constructed with its GangInfo (rank and size) in Config, and — once
// every rank has joined the pool and the peer links are wired by the
// proxy's gang_init op — receives the live communicator through the
// Shardable interface. Services that do not implement Shardable cannot be
// started with Workers > 1; the worker host fails the job with a clear
// error instead of running K divergent solo instances.

// GangInfo describes one rank's place in a gang. It is available at
// service construction time (the communicator arrives later, via
// Shardable.SetGang, because the peer links cannot exist before all
// ranks have announced).
type GangInfo struct {
	// Rank is this worker's rank in [0, Size).
	Rank int
	// Size is the gang size (K).
	Size int
}

// Shardable is implemented by services that can run as one rank of a
// gang. The worker host calls SetGang after the gang's peer links are
// wired and before any model call is dispatched, and only with a
// communicator whose rank and size match the worker's GangInfo: it
// refuses gang_init on a solo worker and on a mismatch, so no kind checks
// either. The service binds its virtual clock to the communicator and uses
// the mpisim collectives for halo exchange and reductions during evolve. A
// kind whose ranks balance their slabs among themselves (mpisim.Rebalance)
// answers a gang evolve with the mpisim.Load they agreed on; a solo or
// World evolve answers Empty.
type Shardable interface {
	SetGang(g *mpisim.Gang) error
}

// GangInitArgs is the proxy-level "gang_init" op: the coupler sends it to
// every rank of a freshly started gang so the ranks can wire their peer
// links (rank i dials every rank j > i; lower ranks are awaited on the
// peer listener, identified by the gang hello frame).
type GangInitArgs struct {
	// ID names the gang; hello frames carry it so one worker could in
	// principle serve several gangs' link handshakes without confusion.
	ID uint64
	// Rank and Size locate the receiving worker in the gang. They repeat
	// the values baked into the worker's job arguments as a consistency
	// check.
	Rank, Size int
	// Peers are the peer-listener addresses of all ranks, indexed by
	// rank ("host:port" in the SmartSockets address space).
	Peers []string
}

// MethodGangInit is the proxy-level gang wiring op.
const MethodGangInit = "gang_init"
