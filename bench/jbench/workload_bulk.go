package main

import (
	"context"
	"fmt"
	"time"

	"jungle/internal/amuse/data"
	"jungle/internal/amuse/ic"
	"jungle/internal/core"
	"jungle/internal/core/kernel"
	"jungle/internal/trace"
)

const bulkStars = 50000

var bulkAttrs = []string{data.AttrMass, data.AttrPos, data.AttrVel}

// bulkState is the data plane under large messages: 2.8 MB of columns
// worker-to-worker over the peer plane and back through the coupler, so the
// state codec, byte accounting and streams dominate and RPCs are few.
var bulkState = &workload{
	name:  "bulk_state",
	procs: 2, warm: 5, timed: 250, opsPerSample: 1, checkEvery: 16,
	prepare: func(seed int64, _ int) (func(*spanRec) (instance, error), error) {
		a, b := ic.Plummer(bulkStars, seed*2), ic.Plummer(bulkStars, seed*2+1)
		st, err := kernel.GatherState(a, bulkAttrs...)
		if err != nil {
			return nil, err
		}
		st.Key = nil
		want := kernel.DigestState(st)
		return func(sp *spanRec) (instance, error) { return newBulkInstance(a, b, want, sp) }, nil
	},
}

// bulkInstance is the DSL testbed with one 50 000-star gravity worker on
// each remote site. An op moves A's columns to B directly, then B's (now
// equal) columns back to A through the coupler, so A never changes.
type bulkInstance struct {
	tb   *core.Testbed
	sim  *core.Simulation
	a, b *core.Gravity
	want uint64
	ops  int

	directVirtual, hairpinVirtual time.Duration // of the traced ops
}

func newBulkInstance(a, b *data.Particles, want uint64, sp *spanRec) (instance, error) {
	tb, err := newTestbed(core.NewDSLTestbed, sp)
	if err != nil {
		return nil, err
	}
	in := &bulkInstance{tb: tb, sim: core.NewSimulation(context.Background(), tb.Daemon, nil), want: want}
	start := func(resource string, p *data.Particles) (*core.Gravity, error) {
		id := sp.under("core.worker_start")
		g, err := in.sim.NewGravity(context.Background(),
			core.WorkerSpec{Resource: resource, Channel: core.ChannelIbis}, core.GravityOptions{Eps: 0.01})
		sp.end(id)
		if err != nil {
			return nil, fmt.Errorf("gravity on %s: %w", resource, err)
		}
		return g, g.SetParticles(p)
	}
	if in.a, err = start(tb.SiteA, a); err == nil {
		in.b, err = start(tb.SiteB, b)
	}
	if err != nil {
		in.close(nil)
		return nil, err
	}
	return in, nil
}

func (in *bulkInstance) op(sp *spanRec, parent, sample int) error {
	ctx := context.Background()
	var v0, v1 time.Duration
	if sp != nil {
		v0 = in.sim.Elapsed()
	}
	id := sp.begin("core.transfer_direct", parent, sample)
	err := in.sim.TransferState(ctx, in.a, in.b, bulkAttrs...)
	sp.end(id)
	if err != nil {
		return err
	}
	if sp != nil {
		v1 = in.sim.Elapsed()
	}
	id = sp.begin("core.hairpin_get", parent, sample)
	st, err := in.b.GetState(ctx, bulkAttrs...)
	sp.end(id)
	if err != nil {
		return err
	}
	id = sp.begin("core.hairpin_set", parent, sample)
	err = in.a.SetState(ctx, st)
	sp.end(id)
	if sp != nil {
		in.directVirtual += v1 - v0
		in.hairpinVirtual += in.sim.Elapsed() - v1
	}
	in.ops++
	return err
}

// check reads A's columns back and requires the initial digest, and that
// every transfer so far went worker-to-worker.
func (in *bulkInstance) check() error {
	st, err := in.a.GetState(context.Background(), bulkAttrs...)
	if err != nil {
		return err
	}
	st.Key = nil
	if got := kernel.DigestState(st); got != in.want {
		return fmt.Errorf("state digest of A %016x after %d round trips, want %016x", got, in.ops, in.want)
	}
	if ts := in.sim.TransferStats(); ts.Direct != in.ops || ts.Fallback != 0 {
		return fmt.Errorf("transfer stats %+v after %d ops: want all direct, no fallback", ts, in.ops)
	}
	return nil
}

func (in *bulkInstance) virtual() time.Duration    { return in.sim.Elapsed() }
func (in *bulkInstance) failed() int               { return 0 }
func (in *bulkInstance) recorder() *trace.Recorder { return in.tb.Recorder }

func (in *bulkInstance) layer(ops int) map[string]float64 {
	ts := in.sim.TransferStats()
	return map[string]float64{
		"core.transfer_direct_virtual_us": float64(in.directVirtual) / 1e3 / float64(ops),
		"core.hairpin_virtual_us":         float64(in.hairpinVirtual) / 1e3 / float64(ops),
		"core.transfer_fallbacks":         float64(ts.Fallback + ts.Hairpin + ts.StripeFallback),
	}
}

func (in *bulkInstance) close(sp *spanRec) {
	stopSim(in.sim, sp)
	closeTestbed(in.tb, sp)
}
