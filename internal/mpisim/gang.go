package mpisim

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"jungle/internal/vtime"
)

// ErrGangBroken is returned by gang operations after any rank link failed
// (typically because a rank worker died). The gang never recovers: every
// subsequent collective fails fast so a surviving rank cannot deadlock
// waiting on a dead peer.
var ErrGangBroken = errors.New("mpisim: gang broken")

// Link is one bidirectional rank-to-rank message channel of a Gang. The
// in-tree implementation wraps a SmartSockets peer connection (see
// internal/core), so gang traffic crosses the virtual network between the
// rank workers' hosts and carries real arrival times; tests may supply
// in-memory links.
type Link interface {
	// Send transmits one message stamped with the sender's virtual time.
	// It takes ownership of data (the vnet.Conn.Send contract), but for
	// the float collectives' parts and broadcasts, which it must not write.
	Send(data []byte, sentAt time.Duration) error
	// Recv blocks for the next message and returns it with its virtual
	// arrival time.
	Recv() ([]byte, time.Duration, error)
	// Close releases the link; a blocked Recv on either end fails.
	Close() error
}

// Gang is the package's one communicator: one rank of a domain-decomposed
// kernel, connected to every other rank over Link transports. A sharded
// kernel's rank workers each hold one over SmartSockets peer connections on
// the overlay (the plane direct state transfers use); a World holds all of
// a multi-node worker's, over vnet connections between the job's hosts.
//
// A Gang advances one virtual clock, its own or the one Bind installs:
// sends are stamped with it and receives advance it to the message's
// arrival — exactly MPI's timing discipline, whether the ranks are
// goroutines of one worker or worker processes.
type Gang struct {
	rank, size int
	links      []Link // indexed by peer rank; links[rank] == nil

	mu     sync.Mutex
	clock  *vtime.Clock
	broken error

	// The load a gang balances on rides an allgather the evolve makes
	// anyway (CarryLoad): armed marks the next one, carry is this rank's
	// part, and loads gets every rank's, which Rebalance takes.
	armed bool
	carry time.Duration
	loads []time.Duration
}

// NewGang builds the communicator for one rank. links must have one entry
// per rank of the gang, nil at the rank's own index; a gang of one has no
// links, and its collectives return their input. The clock defaults to a
// fresh one; hosts bind their own with Bind.
func NewGang(rank, size int, links []Link) (*Gang, error) {
	if rank < 0 || rank >= size {
		return nil, fmt.Errorf("mpisim: gang rank %d of %d", rank, size)
	}
	if len(links) != size {
		return nil, fmt.Errorf("mpisim: gang rank %d: %d links for size %d", rank, len(links), size)
	}
	for p, l := range links {
		if (l == nil) != (p == rank) {
			return nil, fmt.Errorf("mpisim: gang rank %d: bad link table at %d", rank, p)
		}
	}
	return &Gang{rank: rank, size: size, links: links, clock: vtime.NewClock()}, nil
}

// Bind installs the host service's virtual clock: subsequent sends are
// stamped with it and receives advance it. Call once, before any
// collective.
func (g *Gang) Bind(c *vtime.Clock) {
	g.mu.Lock()
	g.clock = c
	g.mu.Unlock()
}

// ID returns this member's rank.
func (g *Gang) ID() int { return g.rank }

// Size returns the gang size.
func (g *Gang) Size() int { return g.size }

// Clock returns the bound virtual clock.
func (g *Gang) Clock() *vtime.Clock {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.clock
}

// fail marks the gang broken (first error wins), closes every link, and
// returns the sticky error. Closing the links is what propagates the
// break: a peer blocked receiving from this rank — e.g. waiting for a
// collective message this rank will now never send because an earlier
// receive in the same collective failed — gets a link error instead of
// waiting forever. One broken rank therefore aborts the whole gang, the
// way an MPI fault aborts the job.
func (g *Gang) fail(err error) error {
	g.mu.Lock()
	newly := g.broken == nil
	if newly {
		g.broken = fmt.Errorf("%w: %v", ErrGangBroken, err)
	}
	broken := g.broken
	g.mu.Unlock()
	if newly {
		g.Close()
	}
	return broken
}

func (g *Gang) link(peer int) (Link, error) {
	g.mu.Lock()
	broken := g.broken
	g.mu.Unlock()
	if broken != nil {
		return nil, broken
	}
	if peer < 0 || peer >= g.size || peer == g.rank {
		return nil, fmt.Errorf("%w: %d (self %d, size %d)", ErrBadRank, peer, g.rank, g.size)
	}
	return g.links[peer], nil
}

// Send transmits data to the peer rank, stamped with the bound clock. Like
// the link underneath it takes ownership of data, but for the float
// collectives' parts and broadcasts, which are still their senders' and
// which no receiver writes (DESIGN.md § Buffer ownership).
func (g *Gang) Send(to int, data []byte) error {
	l, err := g.link(to)
	if err != nil {
		return err
	}
	if err := l.Send(data, g.Clock().Now()); err != nil {
		return g.fail(fmt.Errorf("send to rank %d: %v", to, err))
	}
	return nil
}

// Recv blocks for the next message from the peer rank and advances the
// bound clock to its arrival.
func (g *Gang) Recv(from int) ([]byte, error) {
	l, err := g.link(from)
	if err != nil {
		return nil, err
	}
	data, arrival, err := l.Recv()
	if err != nil {
		return nil, g.fail(fmt.Errorf("recv from rank %d: %v", from, err))
	}
	g.Clock().AdvanceTo(arrival)
	return data, nil
}

// Close tears down every link (rank teardown). Safe to call more than
// once.
func (g *Gang) Close() {
	for _, l := range g.links {
		if l != nil {
			l.Close()
		}
	}
}

// LocalGangs wires a world of size gangs with in-memory links of the given
// fixed virtual latency — the harness the physics packages' tests use to
// exercise sharded kernels without a pool, a daemon or a network (tests
// only). The production links (SmartSockets peer connections) are wired by
// internal/core's gang_init instead.
func LocalGangs(size int, latency time.Duration) *World {
	links := linkTable(size)
	for i := 0; i < size; i++ {
		for j := i + 1; j < size; j++ {
			links[i][j], links[j][i] = localPair(latency)
		}
	}
	return worldOf(links)
}

// localLink is the in-memory Link behind LocalGangs.
type localLink struct {
	out     chan localMsg
	in      chan localMsg
	latency time.Duration

	mu     sync.Mutex
	closed bool
}

type localMsg struct {
	data    []byte
	arrival time.Duration
}

func localPair(latency time.Duration) (*localLink, *localLink) {
	a := make(chan localMsg, 64)
	b := make(chan localMsg, 64)
	return &localLink{out: a, in: b, latency: latency}, &localLink{out: b, in: a, latency: latency}
}

func (l *localLink) Send(data []byte, sentAt time.Duration) error {
	l.mu.Lock()
	closed := l.closed
	l.mu.Unlock()
	if closed {
		return errors.New("mpisim: local link closed")
	}
	l.out <- localMsg{data: data, arrival: sentAt + l.latency}
	return nil
}

func (l *localLink) Recv() ([]byte, time.Duration, error) {
	m, ok := <-l.in
	if !ok {
		return nil, 0, errors.New("mpisim: local link closed")
	}
	return m.data, m.arrival, nil
}

func (l *localLink) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if !l.closed {
		l.closed = true
		close(l.out)
	}
	return nil
}
