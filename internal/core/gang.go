package core

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"jungle/internal/core/kernel"
)

// Coupler-side gang support. A kernel started with WorkerSpec.Workers = K
// runs as K rank workers — each its own job, proxy and pool member —
// behind ONE model handle: the coupler API, the bridge and the virtual-
// time accounting are unchanged. The gangChannel below is what hides the
// fan-out: writes and evolves broadcast to every rank (the ranks hold
// replicated state and decompose the compute among themselves, exchanging
// halos over their own peer links), reads are answered by rank 0, and the
// merged completion carries the latest rank's clock so the coupler pays
// for the slowest rank, exactly as it would for one big worker.

// gangFanout reports whether a method must reach every rank. State reads
// and proxy-level transfer ops are served by rank 0 alone: ranks hold
// bitwise-identical replicated state, so one answer is the answer — and
// one rank's checkpoint snapshot is the whole gang's. Restore broadcasts
// (every rank must load the snapshot), checkpoint reads from rank 0.
func gangFanout(method string) bool {
	switch method {
	case "get_state", "get_positions", "get_velocities", "get_masses", "stats",
		kernel.MethodOfferState, kernel.MethodAcceptState,
		kernel.MethodCheckpoint, kernel.MethodOfferCheckpoint:
		return false
	}
	return true
}

// gangChannel multiplexes one logical worker channel over the K rank
// workers of a gang. Each rank has its own conn channel to the daemon, so
// per-rank FIFO order is preserved; a broadcast issues on every member
// before returning, keeping the pipelining property of the async API.
type gangChannel struct {
	members []channel // one per rank, rank order
	obs     *chanObs  // merged-completion observer (model label = kind)

	// mu guards workers: rank recovery swaps a dead rank's worker id for
	// its replacement's while pipelined callers keep issuing.
	mu      sync.Mutex
	workers []int // daemon worker ids, rank order

	// issueMu makes the member-by-member issue loop of a broadcast atomic
	// with respect to other issuers. The proxy's call path is one
	// goroutine, but the elastic-gang rebalancer issues reshard
	// broadcasts and per-rank rank_load queries concurrently with it;
	// without this lock two broadcasts could interleave across member
	// FIFOs and reach different ranks in different orders.
	issueMu sync.Mutex
}

func newGangChannel(members []channel, workers []int, obs *chanObs) *gangChannel {
	return &gangChannel{members: members, workers: workers, obs: obs}
}

func (g *gangChannel) name() string { return ChannelIbis }

// rankWorkers snapshots the current rank -> worker id mapping.
func (g *gangChannel) rankWorkers() []int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return append([]int(nil), g.workers...)
}

// setWorkers installs a recovered gang's worker ids (rank order). The
// member channels are daemon connections, not worker connections, so they
// survive rank replacement unchanged — requests route by worker id.
func (g *gangChannel) setWorkers(ids []int) {
	g.mu.Lock()
	g.workers = append(g.workers[:0], ids...)
	g.mu.Unlock()
}

// start implements channel. Reads route to rank 0; everything else
// broadcasts and completes once every rank has answered, with the merged
// outcome: rank 0's result, the latest DoneAt/arrival, and the most
// actionable failure (a dead rank beats a surviving rank's aborted-
// collective fault, so the coupler sees ErrWorkerDied when a rank died).
func (g *gangChannel) start(req request, done completion) {
	done = g.obs.observe(req.Method, req.SentAt, done)
	g.issueMu.Lock()
	defer g.issueMu.Unlock()
	workers := g.rankWorkers()
	if !gangFanout(req.Method) {
		req.Worker = workers[0]
		g.members[0].start(req, done)
		return
	}
	n := len(g.members)
	var mu sync.Mutex
	outcomes := make([]gangOutcome, n)
	remaining := n
	for i := range g.members {
		r := req
		r.Worker = workers[i]
		if i > 0 {
			r.ID = reqIDs.Add(1)
		}
		rank := i
		g.members[i].start(r, func(resp response, arrival time.Duration, err error) {
			mu.Lock()
			outcomes[rank] = gangOutcome{resp: resp, arrival: arrival, err: err}
			remaining--
			last := remaining == 0
			mu.Unlock()
			if !last {
				return
			}
			done(mergeGangOutcomes(req.ID, outcomes))
		})
	}
}

// size returns the gang's rank count.
func (g *gangChannel) size() int { return len(g.members) }

// startRank issues a request on one rank's member FIFO (the worker id is
// filled in from the current rank mapping). The rebalancer uses it for
// rank_load queries, which must reach each rank individually — a
// broadcast would answer with rank 0's numbers K times over.
func (g *gangChannel) startRank(rank int, req request, done completion) {
	g.issueMu.Lock()
	defer g.issueMu.Unlock()
	req.Worker = g.rankWorkers()[rank]
	g.members[rank].start(req, done)
}

// gangOutcome is one rank's completion of a broadcast call.
type gangOutcome struct {
	resp    response
	arrival time.Duration
	err     error
}

// mergeGangOutcomes folds the per-rank outcomes into the single completion
// the proxy sees.
func mergeGangOutcomes(reqID uint64, outcomes []gangOutcome) (response, time.Duration, error) {
	var maxArrival, maxDone time.Duration
	for _, o := range outcomes {
		if o.arrival > maxArrival {
			maxArrival = o.arrival
		}
		if o.resp.DoneAt > maxDone {
			maxDone = o.resp.DoneAt
		}
	}
	// A dead rank is the root cause: surviving ranks fail their collective
	// with a worker fault when a peer disappears, so report the death.
	for _, o := range outcomes {
		if o.err != nil && errors.Is(o.err, ErrWorkerDied) {
			return response{}, maxArrival, o.err
		}
	}
	for _, o := range outcomes {
		if o.err == nil && o.resp.Code == kernel.CodeWorkerDied {
			resp := o.resp
			resp.ID = reqID
			return resp, maxArrival, nil
		}
	}
	for _, o := range outcomes {
		if o.err != nil {
			return response{}, maxArrival, o.err
		}
	}
	for _, o := range outcomes {
		if o.resp.Code != kernel.CodeOK {
			resp := o.resp
			resp.ID = reqID
			return resp, maxArrival, nil
		}
	}
	resp := outcomes[0].resp
	resp.ID = reqID
	resp.DoneAt = maxDone
	return resp, maxArrival, nil
}

// close implements channel: all rank channels close.
func (g *gangChannel) close() error {
	var errs []error
	for _, ch := range g.members {
		if err := ch.close(); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// wireGang sends gang_init to every rank so the ranks dial each other's
// peer listeners and assemble their communicators, and waits for all of
// them to finish. Called once, right after the rank workers announced and
// before the model's setup call.
func (g *gangChannel) wireGang(ctx context.Context, s *Simulation) error {
	k := len(g.members)
	workers := g.rankWorkers()
	peers := make([]string, k)
	for rank, id := range workers {
		addr, ok := s.daemon.WorkerPeerAddr(id)
		if !ok {
			return fmt.Errorf("core: gang rank %d (worker %d) has no peer address", rank, id)
		}
		peers[rank] = addr.String()
	}
	gangID := s.daemon.ids.Add(1) // shared with transfer ids: both are just tokens on the peer plane
	errs := make([]error, k)
	// Every rank's request carries the one issue time, and the clock moves
	// when all have answered: a rank that answers while the next one's
	// request is being issued must not change what that request says.
	at, arrivals := s.clock.Now(), make([]time.Duration, k)
	var wg sync.WaitGroup
	g.issueMu.Lock()
	for rank := range g.members {
		args := kernel.Encode(kernel.GangInitArgs{ID: gangID, Rank: rank, Size: k, Peers: peers})
		req := request{
			ID: reqIDs.Add(1), Worker: workers[rank],
			Method: kernel.MethodGangInit, Args: args, SentAt: at,
		}
		wg.Add(1)
		rank := rank
		g.members[rank].start(req, func(resp response, arrival time.Duration, err error) {
			defer wg.Done()
			if err == nil {
				arrivals[rank] = arrival
				err = kernel.ResponseError(&resp)
			}
			if err != nil {
				errs[rank] = fmt.Errorf("core: gang_init rank %d: %w", rank, err)
			}
		})
	}
	g.issueMu.Unlock()
	wired := make(chan struct{})
	go func() {
		wg.Wait()
		close(wired)
	}()
	select {
	case <-wired:
		s.clock.AdvanceTo(slices.Max(arrivals))
		return errors.Join(errs...)
	case <-ctx.Done():
		return fmt.Errorf("core: gang wiring: %w", ctx.Err())
	}
}

// replaceGangRanks is gang rank recovery (dispatched from replace(), on
// the proxy's single drainer goroutine): restart every dead rank's job on
// the gang's resource, re-wire all ranks' peer links under a fresh gang
// id, then rebuild bitwise-identical state everywhere by replaying setup
// and restoring the last checkpoint on every rank — surviving ranks'
// state is suspect after the aborted collective, and a restored rank must
// match its neighbors exactly, so the whole gang resumes from the
// snapshot. The queued calls that observed the death replay afterwards
// (drainRetries), so the coupler sees a hiccup, not a failure.
func (m *modelProxy) replaceGangRanks() error {
	m.mu.Lock()
	spec := m.spec
	ids := append([]int(nil), m.gangWorkers...)
	snap := m.lastSnap
	snapSeq := m.snapSeq
	state := m.lastState
	stateSeq := m.stateSeq
	setup := m.encodedSetupLocked()
	ch := m.ch
	m.mu.Unlock()
	if snap == nil {
		// isReplaceable vetoes this path without a snapshot, but a stale
		// queue entry could still get here; fail with the old semantics.
		return fmt.Errorf("core: gang rank died with no checkpoint to restore from: %w", ErrWorkerDied)
	}
	gch, ok := ch.(*gangChannel)
	if !ok {
		return fmt.Errorf("core: gang proxy without a gang channel: %w", ErrChannelClosed)
	}
	s := m.sim

	// Restart dead ranks. The gang stays on its resource — co-location is
	// a gang invariant (halo traffic rides intra-site links); if the whole
	// site is gone the rank restart fails and the error is sticky.
	replaced := 0
	for r, id := range ids {
		if s.daemon.WorkerAlive(id) {
			continue
		}
		newID, err := s.daemon.startWorker(s.ctx, spec, r, len(ids))
		if err != nil {
			return fmt.Errorf("core: gang rank %d replacement: %w", r, err)
		}
		s.trace("gang rank %d (worker %d) died; replacement worker %d started", r, id, newID)
		s.daemon.StopWorker(id) // retire the dead rank's handle
		ids[r] = newID
		replaced++
	}
	gch.setWorkers(ids)
	m.mu.Lock()
	m.gangWorkers = append(m.gangWorkers[:0], ids...)
	m.worker = ids[0]
	m.mu.Unlock()

	// Re-wire the rank links: a fresh gang id keys the new hello
	// handshakes, every rank (survivors included) rebuilds its
	// communicator, and SetGang installs it over the closed one.
	if err := gch.wireGang(s.ctx, s); err != nil {
		return fmt.Errorf("core: gang re-wiring: %w", err)
	}
	// Rebuild state: setup then restore broadcast to all ranks, then —
	// exactly like the solo replace() path — overlay the particle cache
	// if a push landed after the checkpoint (the broadcast keeps all K
	// replicas consistent).
	if err := m.replay("setup", setup); err != nil {
		return fmt.Errorf("core: gang setup replay: %w", err)
	}
	if err := m.replayRestore(snap); err != nil {
		return fmt.Errorf("core: gang restore: %w", err)
	}
	if state != nil && stateSeq > snapSeq {
		if err := m.replay("set_particles", kernel.Encode(*state)); err != nil {
			return fmt.Errorf("core: gang state overlay: %w", err)
		}
	}
	if err := m.finishReplacement(); err != nil {
		return err
	}
	s.trace("gang recovered: %d rank(s) replaced, %d ranks restored from checkpoint", replaced, len(ids))
	return nil
}
