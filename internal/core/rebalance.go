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

// rebalanceOnce runs one measure → decide → act round. A round is skipped
// unless the proxy is live: while a death, migration or resize rebuilds the
// endpoint there is nothing to measure — the next evolve triggers a fresh
// round against the new one. Acting rides the normal call machinery: the
// reshard is an ordinary replayable call, a migration claims the proxy like
// any other.
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

	switch {
	case e.policy.MigrateOnContention && m.sim.resourceContended(m.resource(), e.policy):
		sample.Action = "migrate"
		e.record(sample)
		// Migrate re-places the gang via SelectLeastLoaded (excluding the
		// contended resource); a refusal leaves it where it is — either way
		// the gang survives.
		m.Migrate(nil, "")
	case sample.Skew >= e.policy.threshold():
		cuts, ok := cutsFromLoads(loads)
		if !ok {
			e.record(sample)
			return
		}
		sample.Action = "reshard"
		e.record(sample)
		// A normal (replayable) call: if a rank dies mid-reshard it is
		// replayed after gang recovery, reapplying the cuts on the restored
		// (uniform) gang.
		m.Go(kernel.MethodReshard, kernel.ReshardArgs{Cuts: cuts}).Wait(m.sim.ctx)
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
