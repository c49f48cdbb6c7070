package core

import (
	"fmt"
	"sync/atomic"
	"time"

	"jungle/internal/core/kernel"
	"jungle/internal/mpisim"
	"jungle/internal/trace"
)

// Elastic gangs, part 1: skew-driven slab rebalancing. A gang's merged
// evolve completion cannot reveal rank skew — the collectives synchronize
// every rank's clock to the slowest — so the rebalancer queries each rank
// directly (rank_load: current slab width plus the virtual compute time
// accumulated since the previous query, reset on read), derives per-rank
// throughput, and when the max/min compute-time ratio reaches
// skewThreshold broadcasts new slab boundaries (reshard) on the gang
// channel's ordered fan-out. Every rank holds the full replicated
// particle arrays, so moving a boundary needs no state movement and
// results stay bit-identical; only the virtual-time distribution changes.
//
// Default off: a model without EnableRebalance issues no rank_load
// queries and no reshards, keeping existing sessions byte-identical.

// skewThreshold is the max/min per-rank compute-time ratio at which a gang
// is resharded.
const skewThreshold = 1.15

// elasticGang is one model's armed rebalancer state.
type elasticGang struct {
	m     *modelProxy
	label string // telemetry key: kind/resource at arming time

	busy   atomic.Bool   // one measurement round at a time
	rounds atomic.Uint64 // completed measurement rounds (tests)
}

// EnableRebalance arms skew-driven slab rebalancing on a gang model.
// After every completed evolve the rebalancer samples per-rank load,
// records the skew gauge to Simulation.Monitor and the session recorder,
// and reshards when the skew reaches skewThreshold. Only gangs can
// rebalance — a solo worker has no slabs to move.
func (m *modelProxy) EnableRebalance() error {
	if !m.isGang() {
		return fmt.Errorf("core: EnableRebalance: %s is not a gang", m.kind)
	}
	m.mu.Lock()
	m.elastic = &elasticGang{m: m, label: fmt.Sprintf("%s/%s", m.kind, m.spec.Resource)}
	m.mu.Unlock()
	return nil
}

// DisableRebalance disarms the rebalancer; in-flight rounds finish but
// no new ones start. The current slab boundaries stay as last resharded.
func (m *modelProxy) DisableRebalance() {
	m.mu.Lock()
	m.elastic = nil
	m.mu.Unlock()
}

// RebalanceRounds reports completed measurement rounds (diagnostics).
func (m *modelProxy) RebalanceRounds() uint64 {
	if e := m.elasticState(); e != nil {
		return e.rounds.Load()
	}
	return 0
}

// evolveDone is the evolve success hook: every evolve spawns one
// asynchronous measurement round.
func (e *elasticGang) evolveDone() {
	if !e.busy.CompareAndSwap(false, true) {
		return // previous round still running
	}
	go func() {
		defer e.busy.Store(false)
		e.rebalanceOnce()
		e.rounds.Add(1)
	}()
}

// rebalanceOnce runs one measure → decide → act round. A round is skipped
// unless the proxy is live: while a death, migration or resize rebuilds the
// endpoint there is nothing to measure — the next evolve triggers a fresh
// round against the new one. Acting rides the normal call machinery: the
// reshard is an ordinary replayable call.
func (e *elasticGang) rebalanceOnce() {
	m := e.m
	if m.currentPhase() != phaseLive || m.elasticState() != e {
		return
	}
	loads, err := m.measureRankLoads()
	if err != nil {
		return // a rebuild got in between; measured again after the next evolve
	}
	sample := trace.GangSample{At: m.sim.clock.Now(), Skew: skewOf(loads)}
	for _, l := range loads {
		sample.Rows = append(sample.Rows, l.Rows)
		sample.Compute = append(sample.Compute, time.Duration(l.ComputeNs))
	}

	if sample.Skew >= skewThreshold {
		if cuts, ok := cutsFromLoads(loads); ok {
			sample.Action = "reshard"
			e.record(sample)
			// A normal (replayable) call: if a rank dies mid-reshard it is
			// replayed after gang recovery, reapplying the cuts on the
			// restored (uniform) gang.
			m.Go(kernel.MethodReshard, kernel.ReshardArgs{Cuts: cuts}).Wait(m.sim.ctx)
			return
		}
	}
	e.record(sample)
}

// record publishes a sample to the monitor and the session recorder.
func (e *elasticGang) record(s trace.GangSample) {
	if rec := e.m.sim.Monitor; rec != nil {
		rec.RecordGangSample(e.label, s)
	}
	e.m.sim.sessionAccount(func(rec *trace.Recorder, id string) {
		rec.RecordGangSample(id+"/"+e.label, s)
	})
}

// skewOf is the trigger gauge: max/min per-rank compute time. Zero when
// any rank reported an empty window (nothing to balance on yet).
func skewOf(loads []kernel.RankLoadResult) float64 {
	minC, maxC := int64(-1), int64(0)
	for _, l := range loads {
		if minC < 0 || l.ComputeNs < minC {
			minC = l.ComputeNs
		}
		if l.ComputeNs > maxC {
			maxC = l.ComputeNs
		}
	}
	if minC <= 0 {
		return 0
	}
	return float64(maxC) / float64(minC)
}

// cutsFromLoads turns a measurement into new slab boundaries: each
// rank's throughput estimate is rows/compute, and the new cuts assign
// rows proportional to throughput (mpisim.WeightedCuts keeps every rank
// at least one row).
func cutsFromLoads(loads []kernel.RankLoadResult) ([]int, bool) {
	n := 0
	weights := make([]float64, len(loads))
	for i, l := range loads {
		n += l.Rows
		if l.ComputeNs > 0 {
			weights[i] = float64(l.Rows) / float64(l.ComputeNs)
		}
	}
	if n == 0 {
		return nil, false
	}
	return mpisim.WeightedCuts(n, weights), true
}

// measureRankLoads queries every rank's rank_load accumulator. The
// queries ride each rank's member FIFO individually, so they order after
// any still-queued evolves and the window they report is exactly the
// evolves since the previous round.
func (m *modelProxy) measureRankLoads() ([]kernel.RankLoadResult, error) {
	m.mu.Lock()
	gch, ok := m.ch.(*gangChannel)
	m.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("core: rank_load needs a gang channel: %w", ErrChannelClosed)
	}
	loads := make([]kernel.RankLoadResult, len(gch.members))
	err := gch.perRank(m.sim.ctx, m.sim, kernel.MethodRankLoad,
		func(int) []byte { return kernel.Encode(kernel.Empty{}) },
		func(rank int, raw []byte) error { return kernel.Decode(raw, &loads[rank]) })
	return loads, err
}
