// Package mpisim provides the intra-model parallelism substrate of the
// reproduction: MPI-style communicators whose collectives (AllreduceSum/Max,
// AllgatherFloats/Bytes) are generic over the Comm interface and run on two
// kinds of rank:
//
//   - World/Rank — goroutine ranks pinned to the virtual hosts of one
//     multi-node worker job (the paper's "Gadget runs on 8 nodes with
//     C/MPI"). Every message crosses the virtual network with traffic
//     class "mpi" and advances per-rank virtual clocks, which is how
//     Fig. 11 distinguishes intra-model from IPL traffic.
//   - Gang — process ranks of a domain-decomposed multi-worker kernel
//     (one kernel sharded across K worker processes, possibly on many
//     nodes of a site). Rank links are pluggable Link transports; in
//     production they are SmartSockets peer connections on the overlay,
//     wired by internal/core's gang_init, and each Gang advances the
//     virtual clock of the worker service hosting it.
//
// Both communicators move real data (kernels are genuinely data-parallel
// across ranks) and account virtual time from vnet link models, which is
// the substitution this repository makes for physical clusters.
package mpisim

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"jungle/internal/vnet"
	"jungle/internal/vtime"
)

// Errors returned by the package.
var (
	ErrWorldClosed = errors.New("mpisim: world closed")
	ErrBadRank     = errors.New("mpisim: rank out of range")
)

// basePortCounter hands out distinct listener port ranges so multiple worlds
// (and multiple workers per host) can coexist on one network.
var basePortCounter atomic.Int64

const worldPortStride = 1024

// World is a communicator spanning one rank per entry of hosts. Host names
// may repeat (several ranks per node, as with multi-core MPI jobs).
type World struct {
	net   *vnet.Network
	hosts []string
	ranks []*Rank

	mu     sync.Mutex
	closed bool

	listeners []*vnet.Listener
	conns     [][]*vnet.Conn // conns[i][j], i<j owns; symmetric entries share
}

// NewWorld builds a fully connected communicator over the given hosts. All
// pairwise connections are established eagerly; ports are allocated from a
// world-private range so worlds never collide.
func NewWorld(network *vnet.Network, hosts []string) (*World, error) {
	if len(hosts) == 0 {
		return nil, errors.New("mpisim: world needs at least one rank")
	}
	base := 30000 + int(basePortCounter.Add(1))*worldPortStride
	w := &World{net: network, hosts: append([]string(nil), hosts...)}
	w.conns = make([][]*vnet.Conn, len(hosts))
	for i := range w.conns {
		w.conns[i] = make([]*vnet.Conn, len(hosts))
	}

	// One listener per rank; rank i dials every rank j>i. Handshakes carry
	// the dialer's rank so the acceptor can place the conn.
	type accepted struct {
		from int
		conn *vnet.Conn
	}
	var cleanup = func() {
		for _, l := range w.listeners {
			l.Close()
		}
		for i := range w.conns {
			for j := range w.conns[i] {
				if i < j && w.conns[i][j] != nil {
					w.conns[i][j].Close()
				}
			}
		}
	}
	acceptCh := make([]chan accepted, len(hosts))
	for j := range hosts {
		if countBefore(hosts, j) > 0 {
			// A previous rank on the same host already listens on its own
			// port; each rank gets a distinct port so no sharing is needed.
			_ = j
		}
		l, err := network.Listen(hosts[j], base+j)
		if err != nil {
			cleanup()
			return nil, fmt.Errorf("mpisim: rank %d listen on %s: %w", j, hosts[j], err)
		}
		w.listeners = append(w.listeners, l)
		ch := make(chan accepted, len(hosts))
		acceptCh[j] = ch
		go func(l *vnet.Listener, ch chan accepted) {
			for {
				conn, err := l.Accept()
				if err != nil {
					close(ch)
					return
				}
				msg, err := conn.Recv()
				if err != nil || len(msg.Data) != 4 {
					conn.Close()
					continue
				}
				conn.SetClass("mpi")
				ch <- accepted{from: int(binary.LittleEndian.Uint32(msg.Data)), conn: conn}
			}
		}(l, ch)
	}
	for i := range hosts {
		for j := i + 1; j < len(hosts); j++ {
			conn, err := network.Dial(hosts[i], hosts[j], base+j)
			if err != nil {
				cleanup()
				return nil, fmt.Errorf("mpisim: connect rank %d->%d: %w", i, j, err)
			}
			conn.SetClass("mpi")
			var hdr [4]byte
			binary.LittleEndian.PutUint32(hdr[:], uint32(i))
			if _, err := conn.Send(hdr[:], 0); err != nil {
				cleanup()
				return nil, err
			}
			w.conns[i][j] = conn
		}
	}
	// Collect the accept-side endpoints.
	for j := range hosts {
		for i := 0; i < j; i++ {
			a, ok := <-acceptCh[j]
			if !ok {
				cleanup()
				return nil, fmt.Errorf("mpisim: rank %d accept failed", j)
			}
			w.conns[j][a.from] = a.conn
		}
	}

	for i, h := range hosts {
		w.ranks = append(w.ranks, &Rank{world: w, id: i, host: h, clock: vtime.NewClock()})
	}
	return w, nil
}

func countBefore(hosts []string, j int) int {
	n := 0
	for i := 0; i < j; i++ {
		if hosts[i] == hosts[j] {
			n++
		}
	}
	return n
}

// Size returns the number of ranks.
func (w *World) Size() int { return len(w.ranks) }

// Hosts returns the host of each rank.
func (w *World) Hosts() []string { return append([]string(nil), w.hosts...) }

// Rank returns the handle for rank i.
func (w *World) Rank(i int) *Rank { return w.ranks[i] }

// Close tears down all listeners and connections.
func (w *World) Close() {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return
	}
	w.closed = true
	w.mu.Unlock()
	for _, l := range w.listeners {
		l.Close()
	}
	for i := range w.conns {
		for j := range w.conns[i] {
			if i < j && w.conns[i][j] != nil {
				w.conns[i][j].Close()
			}
		}
	}
}

// Run executes f concurrently on every rank and waits for all to finish.
// The first non-nil error is returned (all ranks still run to completion).
func (w *World) Run(f func(r *Rank) error) error {
	errs := make([]error, len(w.ranks))
	var wg sync.WaitGroup
	for i, r := range w.ranks {
		wg.Add(1)
		go func(i int, r *Rank) {
			defer wg.Done()
			errs[i] = f(r)
		}(i, r)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// MaxTime returns the latest virtual clock across ranks — the completion
// time of the parallel section, which is what the worker reports upstream.
func (w *World) MaxTime() time.Duration {
	var max time.Duration
	for _, r := range w.ranks {
		if t := r.clock.Now(); t > max {
			max = t
		}
	}
	return max
}

// SyncTo advances every rank clock to at least t (used when a worker starts
// a new request at the coupler-provided virtual time).
func (w *World) SyncTo(t time.Duration) {
	for _, r := range w.ranks {
		r.clock.AdvanceTo(t)
	}
}

// Rank is one member of a World. All methods must be called from the
// goroutine running this rank (the function passed to Run), matching MPI's
// single-threaded-per-rank discipline.
type Rank struct {
	world *World
	id    int
	host  string
	clock *vtime.Clock
}

// ID returns the rank number.
func (r *Rank) ID() int { return r.id }

// Size returns the communicator size.
func (r *Rank) Size() int { return len(r.world.ranks) }

// Host returns the virtual host this rank runs on.
func (r *Rank) Host() string { return r.host }

// Clock exposes the rank's virtual clock.
func (r *Rank) Clock() *vtime.Clock { return r.clock }

// Now returns the rank's current virtual time.
func (r *Rank) Now() time.Duration { return r.clock.Now() }

// Compute advances the rank's clock by the given computation duration.
func (r *Rank) Compute(d time.Duration) { r.clock.Advance(d) }

// ComputeFlops advances the rank's clock by the time dev needs for the given
// flop count using n cores.
func (r *Rank) ComputeFlops(dev *vtime.Device, flops float64, n int) {
	r.clock.Advance(dev.Time(flops, n))
}

func (r *Rank) conn(peer int) (*vnet.Conn, error) {
	if peer < 0 || peer >= len(r.world.ranks) || peer == r.id {
		return nil, fmt.Errorf("%w: %d (self %d, size %d)", ErrBadRank, peer, r.id, r.Size())
	}
	c := r.world.conns[r.id][peer]
	if c == nil {
		return nil, ErrWorldClosed
	}
	return c, nil
}

// Send transmits data to peer, stamped with this rank's virtual time.
func (r *Rank) Send(to int, data []byte) error {
	c, err := r.conn(to)
	if err != nil {
		return err
	}
	_, err = c.Send(data, r.clock.Now())
	return err
}

// Recv blocks for the next message from peer and advances this rank's clock
// to the virtual arrival time.
func (r *Rank) Recv(from int) ([]byte, error) {
	c, err := r.conn(from)
	if err != nil {
		return nil, err
	}
	msg, err := c.Recv()
	if err != nil {
		return nil, err
	}
	r.clock.AdvanceTo(msg.Arrival)
	return msg.Data, nil
}

func floatsToBytes(x []float64) []byte {
	b := make([]byte, 8*len(x))
	for i, v := range x {
		binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(v))
	}
	return b
}

// floatAt decodes the i-th float of a little-endian payload.
func floatAt(b []byte, i int) float64 {
	return math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
}

// appendFloats decodes a little-endian payload onto the end of dst, which
// grows only when it has no room.
func appendFloats(dst []float64, b []byte) ([]float64, error) {
	if len(b)%8 != 0 {
		return nil, fmt.Errorf("mpisim: float payload length %d not a multiple of 8", len(b))
	}
	at := len(dst)
	dst = slices.Grow(dst, len(b)/8)[:at+len(b)/8]
	for i := range dst[at:] {
		dst[at+i] = floatAt(b, i)
	}
	return dst, nil
}

// Slab returns this rank's half-open index range [lo, hi) of an n-element
// domain decomposed into near-equal contiguous blocks — the standard slab
// decomposition used by the SPH worker.
func (r *Rank) Slab(n int) (lo, hi int) {
	return Slab(n, r.id, r.Size())
}

// Slab decomposes n elements over size ranks and returns rank's block.
func Slab(n, rank, size int) (lo, hi int) {
	q, rem := n/size, n%size
	lo = rank*q + min(rank, rem)
	hi = lo + q
	if rank < rem {
		hi++
	}
	return lo, hi
}

// CutRange returns rank's half-open row range under an explicit cuts
// vector (size+1 monotone boundaries with cuts[0] == 0). It is the
// cuts-aware generalization of Slab: a nil cuts vector falls back to the
// uniform decomposition, which keeps default (never-resharded) gangs on
// exactly the code path they used before elastic gangs existed.
func CutRange(cuts []int, rank, n, size int) (lo, hi int) {
	if cuts == nil {
		return Slab(n, rank, size)
	}
	return cuts[rank], cuts[rank+1]
}

// WeightedCuts builds a cuts vector assigning each rank a row count
// proportional to its weight (a throughput estimate: rows per unit
// compute time). Every rank keeps at least one row while n allows, so a
// stalled rank can never be starved into a zero-length slab that would
// stop producing timing samples. Non-positive or non-finite weights are
// treated as the smallest positive weight present (or uniform if none
// is).
func WeightedCuts(n int, weights []float64) []int {
	size := len(weights)
	w := make([]float64, size)
	minW := math.Inf(1)
	for _, x := range weights {
		if x > 0 && !math.IsInf(x, 1) && minW > x {
			minW = x
		}
	}
	if math.IsInf(minW, 1) {
		minW = 1
	}
	var total float64
	for i, x := range weights {
		if x <= 0 || math.IsInf(x, 1) || math.IsNaN(x) {
			x = minW
		}
		w[i] = x
		total += x
	}
	rows := make([]int, size)
	assigned := 0
	for i := range w {
		rows[i] = int(float64(n) * w[i] / total)
		if rows[i] < 1 && n >= size {
			rows[i] = 1
		}
		assigned += rows[i]
	}
	// Distribute the remainder (or claw back an overshoot caused by the
	// min-one-row clamp) one row at a time, always adjusting the rank
	// whose current allocation is furthest below (resp. above) its ideal
	// share. Deterministic: ties go to the lowest rank.
	for assigned != n {
		step := 1
		if assigned > n {
			step = -1
		}
		best, bestGap := -1, math.Inf(-1)
		for i := range rows {
			if step < 0 && rows[i] <= 1 && n >= size {
				continue
			}
			ideal := float64(n) * w[i] / total
			gap := float64(step) * (ideal - float64(rows[i]))
			if gap > bestGap {
				best, bestGap = i, gap
			}
		}
		if best < 0 {
			best = 0
		}
		rows[best] += step
		assigned += step
	}
	cuts := make([]int, size+1)
	for i, r := range rows {
		cuts[i+1] = cuts[i] + r
	}
	return cuts
}

// ValidCuts reports whether cuts is a well-formed boundary vector for n
// rows over size ranks: size+1 entries, starting at 0, ending at n,
// non-decreasing.
func ValidCuts(cuts []int, n, size int) error {
	if len(cuts) != size+1 {
		return fmt.Errorf("mpisim: cuts has %d boundaries, want %d", len(cuts), size+1)
	}
	if cuts[0] != 0 || cuts[size] != n {
		return fmt.Errorf("mpisim: cuts span [%d, %d), want [0, %d)", cuts[0], cuts[size], n)
	}
	for i := 1; i <= size; i++ {
		if cuts[i] < cuts[i-1] {
			return fmt.Errorf("mpisim: cuts not monotone at rank %d (%d < %d)", i-1, cuts[i], cuts[i-1])
		}
	}
	return nil
}
