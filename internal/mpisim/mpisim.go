// Package mpisim provides the intra-model parallelism substrate of the
// reproduction: one MPI-style communicator, Gang, whose collectives
// (AllreduceSum/Max, AllgatherFloats/Bytes) run over pluggable Link
// transports. A Gang is one rank of a domain-decomposed kernel, and it is
// wired two ways:
//
//   - World — the K ranks of one multi-node worker job (the paper's
//     "Gadget runs on 8 nodes with C/MPI"), linked pairwise by vnet
//     connections between the job's hosts. Each rank runs as a goroutine
//     with its own virtual clock, and every message crosses the virtual
//     network with traffic class "mpi", which is how Fig. 11 distinguishes
//     intra-model from IPL traffic.
//   - A sharded kernel's rank workers (one kernel across K worker
//     processes, possibly on many nodes of a site) each hold one Gang whose
//     links are SmartSockets peer connections on the overlay, wired by
//     internal/core's gang_init; it advances the virtual clock of the
//     worker service hosting it.
//
// Either way the ranks move real data (kernels are genuinely data-parallel
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
	"jungle/internal/wire"
)

// ErrBadRank is returned for a peer rank outside the communicator or equal
// to the caller's own.
var ErrBadRank = errors.New("mpisim: rank out of range")

// basePortCounter hands out distinct listener port ranges so multiple worlds
// (and multiple workers per host) can coexist on one network.
var basePortCounter atomic.Int64

const worldPortStride = 1024

// World is the communicator of one multi-node worker job: one Gang per rank,
// each with its own clock, linked to every other rank of the world.
type World struct {
	gangs     []*Gang
	listeners []*vnet.Listener
}

// Rank is a World rank as bench/jbench's probes name it; the method forms
// of AllreduceSum and AllgatherFloats are theirs too (DESIGN.md § Sharded
// kernels).
type Rank = Gang

// NewWorld builds a fully connected communicator with one rank per entry of
// hosts. Host names may repeat (several ranks per node, as with multi-core
// MPI jobs). All pairwise connections are established eagerly; ports are
// allocated from a world-private range so worlds never collide.
func NewWorld(network *vnet.Network, hosts []string) (*World, error) {
	if len(hosts) == 0 {
		return nil, errors.New("mpisim: world needs at least one rank")
	}
	base := 30000 + int(basePortCounter.Add(1))*worldPortStride
	links := linkTable(len(hosts))
	var listeners []*vnet.Listener
	cleanup := func() {
		for _, l := range listeners {
			l.Close()
		}
		for _, row := range links {
			for _, l := range row {
				if l != nil {
					l.Close()
				}
			}
		}
	}

	// One listener per rank; rank i dials every rank j>i. Handshakes carry
	// the dialer's rank so the acceptor can place the conn.
	type accepted struct {
		from int
		conn *vnet.Conn
	}
	acceptCh := make([]chan accepted, len(hosts))
	for j := range hosts {
		l, err := network.Listen(hosts[j], base+j)
		if err != nil {
			cleanup()
			return nil, fmt.Errorf("mpisim: rank %d listen on %s: %w", j, hosts[j], err)
		}
		listeners = append(listeners, l)
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
			links[i][j] = connLink{conn}
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
			links[j][a.from] = connLink{a.conn}
		}
	}
	w := worldOf(links)
	w.listeners = listeners
	return w, nil
}

// linkTable returns an empty size×size table of rank links.
func linkTable(size int) [][]Link {
	links := make([][]Link, size)
	for i := range links {
		links[i] = make([]Link, size)
	}
	return links
}

// worldOf builds one Gang per row of a link table that is full but for its
// diagonal.
func worldOf(links [][]Link) *World {
	w := &World{gangs: make([]*Gang, len(links))}
	for i := range links {
		g, err := NewGang(i, len(links), links[i])
		if err != nil {
			panic(err) // impossible: the callers fill every off-diagonal entry
		}
		w.gangs[i] = g
	}
	return w
}

// connLink is a World's Link: one endpoint of the vnet connection between
// two ranks' hosts, whose Send and Recv already have the Link shape.
type connLink struct{ conn *vnet.Conn }

func (l connLink) Send(data []byte, sentAt time.Duration) error {
	_, err := l.conn.Send(data, sentAt)
	return err
}

func (l connLink) Recv() ([]byte, time.Duration, error) {
	msg, err := l.conn.Recv()
	return msg.Data, msg.Arrival, err
}

func (l connLink) Close() error { return l.conn.Close() }

// Size returns the number of ranks.
func (w *World) Size() int { return len(w.gangs) }

// Close tears down all listeners and connections. Safe to call more than
// once.
func (w *World) Close() {
	for _, l := range w.listeners {
		l.Close()
	}
	for _, g := range w.gangs {
		g.Close()
	}
}

// Run executes f concurrently on every rank and waits for all to finish,
// returning every rank's error joined. A rank whose link fails breaks its
// gang and closes its links, so the others fail too instead of waiting on
// it.
func (w *World) Run(f func(g *Gang) error) error {
	errs := make([]error, len(w.gangs))
	var wg sync.WaitGroup
	for i, g := range w.gangs {
		wg.Add(1)
		go func(i int, g *Gang) {
			defer wg.Done()
			errs[i] = f(g)
		}(i, g)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// MaxTime returns the latest virtual clock across ranks — the completion
// time of the parallel section, which is what the worker reports upstream.
func (w *World) MaxTime() time.Duration {
	var max time.Duration
	for _, g := range w.gangs {
		if t := g.Clock().Now(); t > max {
			max = t
		}
	}
	return max
}

// SyncTo advances every rank clock to at least t (used when a worker starts
// a new request at the coupler-provided virtual time).
func (w *World) SyncTo(t time.Duration) {
	for _, g := range w.gangs {
		g.Clock().AdvanceTo(t)
	}
}

// floatsToBytes encodes a float payload into a buffer of its own.
func floatsToBytes(x []float64) []byte { return wire.AppendFloats(nil, x) }

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
	wire.DecodeFloats(dst[at:], b)
	return dst, nil
}

// Slab decomposes n elements over size ranks into near-equal contiguous
// blocks and returns rank's half-open block [lo, hi) — the standard slab
// decomposition used by the SPH worker.
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
