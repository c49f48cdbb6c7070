package core

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"jungle/internal/core/kernel"
	"jungle/internal/mpisim"
	"jungle/internal/trace"
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
	case "get_state", "stats", kernel.MethodOfferState, kernel.MethodAcceptState,
		kernel.MethodCheckpoint:
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

	// issueMu makes the member-by-member issue loop of a broadcast atomic
	// with respect to other issuers — goroutines of one script issuing to
	// one model, and a rebuild's per-rank gang_init — so two broadcasts
	// never interleave across member FIFOs and reach different ranks in
	// different orders. It also guards workers: rank recovery swaps a dead
	// rank's worker id for its replacement's while pipelined callers keep
	// issuing.
	issueMu sync.Mutex
	workers []int // daemon worker ids, rank order
}

func newGangChannel(members []channel, workers []int, obs *chanObs) *gangChannel {
	return &gangChannel{members: members, workers: workers, obs: obs}
}

// setWorkers installs a recovered gang's worker ids (rank order).
func (g *gangChannel) setWorkers(ids []int) {
	g.issueMu.Lock()
	g.workers = ids
	g.issueMu.Unlock()
}

// start implements channel. Reads route to rank 0; everything else
// broadcasts and completes once every rank has answered, with the merged
// outcome: rank 0's result, the latest DoneAt/arrival, and the most
// actionable failure (a dead rank beats a surviving rank's aborted-
// collective fault, so the coupler sees ErrWorkerDied when a rank died).
func (g *gangChannel) start(req request, done completer) {
	merged := pendingCall{done, req.Method, req.SentAt}
	g.issueMu.Lock()
	defer g.issueMu.Unlock()
	workers := g.workers
	if !gangFanout(req.Method) {
		req.Worker = workers[0]
		g.members[0].start(req, completion(func(resp response, arrival time.Duration, err error) {
			g.obs.deliver(merged, resp, arrival, err)
		}))
		return
	}
	n := len(g.members)
	var mu sync.Mutex
	outcomes := make([]gangOutcome, n)
	remaining := n
	for i := range g.members {
		r := req
		if i < n-1 {
			r = req.Unframed() // one frame cannot go to K ranks: the last takes it, the others copy
		}
		r.Worker = workers[i]
		if i > 0 {
			r.ID = reqIDs.Add(1)
		}
		rank := i
		g.members[i].start(r, completion(func(resp response, arrival time.Duration, err error) {
			mu.Lock()
			outcomes[rank] = gangOutcome{resp: resp, arrival: arrival, err: err}
			remaining--
			last := remaining == 0
			mu.Unlock()
			if !last {
				return
			}
			resp, arrival, err = mergeGangOutcomes(req.ID, outcomes)
			g.obs.deliver(merged, resp, arrival, err)
		}))
	}
}

// perRank sends method to every rank individually, on the rank's own member
// FIFO (a broadcast of a read is answered by rank 0 alone — K times rank 0's
// numbers), with args(rank), and waits for all the answers; result, if set,
// gets each rank's. Every rank's request carries the one issue time, and the
// clock moves when all have answered: a rank that answers while the next
// one's request is being issued must not change what that request says.
func (g *gangChannel) perRank(ctx context.Context, s *Simulation, method string, args func(rank int) []byte, result func(rank int, raw []byte) error) error {
	k := len(g.members)
	errs := make([]error, k)
	at, arrivals := s.clock.Now(), make([]time.Duration, k)
	done := make(chan struct{}, k)
	g.issueMu.Lock()
	workers := g.workers
	for rank, member := range g.members {
		req := request{ID: reqIDs.Add(1), Worker: workers[rank], Method: method, Args: args(rank), SentAt: at}
		member.start(req, completion(func(resp response, arrival time.Duration, err error) {
			if err == nil {
				arrivals[rank] = arrival
				if err = kernel.ResponseError(&resp); err == nil && result != nil {
					err = result(rank, resp.Result)
				}
			}
			if err != nil {
				errs[rank] = fmt.Errorf("core: %s rank %d: %w", method, rank, err)
			}
			done <- struct{}{}
		}))
	}
	g.issueMu.Unlock()
	for range k {
		select {
		case <-done:
		case <-ctx.Done():
			return fmt.Errorf("core: %s: %w", method, ctx.Err())
		}
	}
	s.clock.AdvanceTo(slices.Max(arrivals))
	return errors.Join(errs...)
}

// recordLoad records a gang's agreed load — its evolve reply, rank 0's
// (mpisim.Rebalance) — to the plane as one sample, stamped with the time the
// merged evolve reached the coupler. A session's gangs are labelled under
// its id, so two tenants' gangs on one resource stay apart. A solo
// worker's evolve reply is no load, and a kind whose ranks keep no cuts
// replies Empty.
func (m *modelProxy) recordLoad(result []byte, at time.Duration) {
	m.mu.Lock()
	gang, resource := len(m.workers) > 1, m.spec.Resource
	m.mu.Unlock()
	var load mpisim.Load
	if !gang || m.sim.rec == nil || kernel.Decode(result, &load) != nil || len(load.Rows) == 0 {
		return
	}
	s := trace.GangSample{At: at, Rows: load.Rows, Compute: load.Compute, Skew: load.Skew()}
	if load.Resharded {
		s.Action = "reshard"
	}
	label := string(m.kind) + "/" + resource
	if id := m.sim.Session(); id != "" {
		label = id + "/" + label
	}
	m.sim.rec.RecordGangSample(label, s)
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
// them to finish. Called right after the rank workers announced and before
// the model's setup call — at start, and again when rank recovery has
// restarted dead ranks (a fresh gang id keys the new links).
func (g *gangChannel) wireGang(ctx context.Context, s *Simulation) error {
	k := len(g.members)
	peers := make([]string, k)
	for rank, id := range g.workers { // only the rebuild calling this ever writes them
		addr, ok := s.daemon.workerPeer(id)
		if !ok {
			return fmt.Errorf("core: gang rank %d (worker %d) has no peer address", rank, id)
		}
		peers[rank] = addr.name
	}
	gangID := s.daemon.ids.Add(1) // shared with transfer ids: both are just tokens on the peer plane
	return g.perRank(ctx, s, kernel.MethodGangInit, func(rank int) []byte {
		return kernel.Encode(kernel.GangInitArgs{ID: gangID, Rank: rank, Size: k, Peers: peers})
	}, nil)
}
