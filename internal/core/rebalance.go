package core

import (
	"errors"
	"fmt"
	"slices"
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
// throughput, and when the max/min compute-time ratio exceeds the policy
// threshold broadcasts new slab boundaries (reshard) on the gang
// channel's ordered fan-out. Every rank holds the full replicated
// particle arrays, so moving a boundary needs no state movement and
// results stay bit-identical; only the virtual-time distribution changes.
//
// Default off: a model without EnableRebalance issues no rank_load
// queries and no reshards, keeping existing sessions byte-identical —
// the same contract as TransferStripes and the codecs.

// ElasticPolicy tunes the rebalancer armed by EnableRebalance.
type ElasticPolicy struct {
	// SkewThreshold is the max/min per-rank compute-time ratio above
	// which the gang is resharded (0 means the default 1.15; a 4× skew
	// trips either way).
	SkewThreshold float64
	// Interval is how many completed evolves separate measurement rounds
	// (0 means every evolve).
	Interval int
	// MigrateOnContention also watches the gang's resource in the
	// deployment capacity ledger: when other sessions occupy more than
	// ContentionFraction of its nodes and a strictly less-loaded
	// resource exists, the whole gang migrates there (migrate.go).
	MigrateOnContention bool
	// ContentionFraction is the occupied-by-others node fraction that
	// counts as contended (0 means the default 0.5).
	ContentionFraction float64
	// MinGoodput, when positive, additionally treats the resource as
	// contended when the monitor's latest goodput probe from the
	// coupler's host to the resource frontend fell below this (bytes/s).
	MinGoodput float64
}

func (p ElasticPolicy) threshold() float64 {
	if p.SkewThreshold > 0 {
		return p.SkewThreshold
	}
	return 1.15
}

func (p ElasticPolicy) interval() int {
	if p.Interval > 0 {
		return p.Interval
	}
	return 1
}

func (p ElasticPolicy) contentionFraction() float64 {
	if p.ContentionFraction > 0 {
		return p.ContentionFraction
	}
	return 0.5
}

// elasticGang is one model's armed rebalancer state.
type elasticGang struct {
	m      *modelProxy
	policy ElasticPolicy
	label  string // telemetry key: kind/resource at arming time

	evolves atomic.Uint64 // completed evolves since arming
	busy    atomic.Bool   // one measurement round at a time
	rounds  atomic.Uint64 // completed measurement rounds (tests)
}

// EnableRebalance arms skew-driven slab rebalancing on a gang model.
// After every policy.Interval completed evolves the rebalancer samples
// per-rank load, records the skew gauge to Simulation.Monitor and the
// session recorder, and reshards (or migrates, per policy) when the
// trigger rule fires. Only gangs can rebalance — a solo worker has no
// slabs to move.
func (m *modelProxy) EnableRebalance(p ElasticPolicy) error {
	if !m.isGang() {
		return fmt.Errorf("core: EnableRebalance: %s is not a gang", m.kind)
	}
	m.mu.Lock()
	m.elastic = &elasticGang{m: m, policy: p,
		label: fmt.Sprintf("%s/%s", m.kind, m.spec.Resource)}
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

// evolveDone is the evolve success hook: cheap counter bump, and every
// interval-th evolve spawns one asynchronous measurement round.
func (e *elasticGang) evolveDone() {
	n := e.evolves.Add(1)
	if int(n)%e.policy.interval() != 0 {
		return
	}
	if !e.busy.CompareAndSwap(false, true) {
		return // previous round still running
	}
	go func() {
		defer e.busy.Store(false)
		e.rebalanceOnce()
		e.rounds.Add(1)
	}()
}

// rebalanceOnce runs one measure → decide → act round. The measurement
// runs under migMu (TryLock: when a migration or replacement is
// rebuilding the endpoint the round is skipped — the next evolve
// triggers a fresh one against the new endpoint), but the lock is
// released before acting: the reshard broadcast and a voluntary
// migration both ride the normal call machinery, whose failure path
// (the retry drainer) needs migMu itself.
func (e *elasticGang) rebalanceOnce() {
	m := e.m
	if !m.migMu.TryLock() {
		return
	}
	m.mu.Lock()
	stopped := m.stopped
	m.mu.Unlock()
	if stopped || m.elasticState() != e {
		m.migMu.Unlock()
		return
	}
	loads, err := m.measureRankLoads()
	m.migMu.Unlock()
	if err != nil {
		m.sim.trace("rebalance: measurement skipped: %v", err)
		return
	}
	sample := trace.GangSample{At: m.sim.clock.Now(), Skew: skewOf(loads)}
	for _, l := range loads {
		sample.Rows = append(sample.Rows, l.Rows)
		sample.Compute = append(sample.Compute, time.Duration(l.ComputeNs))
	}

	switch {
	case e.policy.MigrateOnContention && m.sim.resourceContended(m.resource(), e.policy):
		sample.Action = "migrate"
		e.record(sample)
		// Migrate re-places the gang via SelectLeastLoaded (excluding the
		// contended resource); failure falls through to the dead-rank
		// machinery or stays put — either way the gang survives.
		if err := m.Migrate(nil, ""); err != nil {
			m.sim.trace("rebalance: migration off contended %s failed: %v", m.resource(), err)
		}
	case sample.Skew >= e.policy.threshold():
		cuts, ok := cutsFromLoads(loads)
		if !ok {
			e.record(sample)
			return
		}
		sample.Action = "reshard"
		e.record(sample)
		// A normal (replaceable) call: if a rank dies mid-reshard the
		// retry machinery replays it after gang recovery, reapplying the
		// cuts on the restored (uniform) gang.
		c := m.Go(kernel.MethodReshard, kernel.ReshardArgs{Cuts: cuts})
		if err := c.Wait(m.sim.ctx); err != nil {
			m.sim.trace("rebalance: reshard failed: %v", err)
			return
		}
		m.sim.trace("gang resharded (skew %.2f): cuts %v", sample.Skew, cuts)
	default:
		e.record(sample)
	}
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
// queries ride each rank's member FIFO individually (a broadcast would
// return rank 0's numbers K times), so they order after any still-queued
// evolves and the window they report is exactly the evolves since the
// previous round.
func (m *modelProxy) measureRankLoads() ([]kernel.RankLoadResult, error) {
	ch, _, _ := m.endpoint()
	gch, ok := ch.(*gangChannel)
	if !ok {
		return nil, fmt.Errorf("core: rank_load needs a gang channel: %w", ErrChannelClosed)
	}
	s := m.sim
	k := gch.size()
	loads := make([]kernel.RankLoadResult, k)
	errs := make([]error, k)
	done := make(chan int, k)
	at, arrivals := s.clock.Now(), make([]time.Duration, k) // one issue time; the clock moves when all have answered
	for rank := 0; rank < k; rank++ {
		rank := rank
		req := request{
			ID: reqIDs.Add(1), Method: kernel.MethodRankLoad,
			Args: kernel.Encode(kernel.Empty{}), SentAt: at,
		}
		gch.startRank(rank, req, func(resp response, arrival time.Duration, err error) {
			if err == nil {
				arrivals[rank] = arrival
				if werr := kernel.ResponseError(&resp); werr != nil {
					err = werr
				} else {
					err = kernel.Decode(resp.Result, &loads[rank])
				}
			}
			errs[rank] = err
			done <- rank
		})
	}
	for i := 0; i < k; i++ {
		select {
		case <-done:
		case <-s.ctx.Done():
			return nil, s.ctx.Err()
		}
	}
	s.clock.AdvanceTo(slices.Max(arrivals))
	return loads, errors.Join(errs...)
}
