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

const rpcStars = 64

// rpcKick is the control plane under small messages: 8 zero-kick RPCs per
// op (4 awaited, 4 pipelined) to four sites, so framing, ports, relay, arg
// codec and call recording do all the work.
var rpcKick = &workload{
	name:  "rpc_kick",
	procs: 1, warm: 500, timed: 33333, opsPerSample: 1, checkEvery: 8000,
	prepare: func(seed int64, _ int) (func(*spanRec) (instance, error), error) {
		ics := make([]*data.Particles, 4)
		want := make([]uint64, 4)
		for i := range ics {
			ics[i] = ic.Plummer(rpcStars, seed*4+int64(i))
			st, err := kernel.GatherState(ics[i], data.AttrPos, data.AttrVel)
			if err != nil {
				return nil, err
			}
			st.Key = nil
			want[i] = kernel.DigestState(st)
		}
		return func(sp *spanRec) (instance, error) { return newRPCInstance(ics, want, sp) }, nil
	},
}

// rpcInstance is the lab testbed with one small gravity worker on each of
// the four remote sites, all behind the ibis channel.
type rpcInstance struct {
	tb     *core.Testbed
	sim    *core.Simulation
	models []*core.Gravity
	calls  []core.Waiter
	dv     []data.Vec3 // zero kick: the ops cost the channel stack only
	want   []uint64

	// virtual time of the two halves of the traced ops
	syncVirtual, pipeVirtual time.Duration
}

func newRPCInstance(ics []*data.Particles, want []uint64, sp *spanRec) (instance, error) {
	tb, err := newTestbed(core.NewLabTestbed, sp)
	if err != nil {
		return nil, err
	}
	in := &rpcInstance{
		tb: tb, sim: core.NewSimulation(context.Background(), tb.Daemon, nil),
		calls: make([]core.Waiter, len(ics)), dv: make([]data.Vec3, rpcStars), want: want,
	}
	for i, r := range []string{tb.LGM, tb.VU, tb.UvA, tb.TUD} {
		id := sp.under("core.worker_start")
		g, err := in.sim.NewGravity(context.Background(),
			core.WorkerSpec{Resource: r, Channel: core.ChannelIbis}, core.GravityOptions{Eps: 0.01})
		sp.end(id)
		if err != nil {
			in.close(nil)
			return nil, fmt.Errorf("gravity on %s: %w", r, err)
		}
		in.models = append(in.models, g)
		if err := g.SetParticles(ics[i]); err != nil {
			in.close(nil)
			return nil, err
		}
	}
	return in, nil
}

func (in *rpcInstance) op(sp *spanRec, parent, sample int) error {
	ctx := context.Background()
	var v0, v1 time.Duration
	if sp != nil {
		v0 = in.sim.Elapsed()
	}
	id := sp.begin("core.sync_kick", parent, sample)
	for _, g := range in.models {
		if err := g.Kick(ctx, in.dv); err != nil {
			return err
		}
	}
	sp.end(id)
	if sp != nil {
		v1 = in.sim.Elapsed()
	}
	id = sp.begin("core.pipelined_round", parent, sample)
	for j, g := range in.models {
		in.calls[j] = g.GoKick(in.dv)
	}
	err := core.Gather(ctx, in.calls...)
	sp.end(id)
	if sp != nil {
		in.syncVirtual += v1 - v0
		in.pipeVirtual += in.sim.Elapsed() - v1
	}
	return err
}

// check reads every worker's positions and velocities back: zero kicks must
// have left them as uploaded.
func (in *rpcInstance) check() error {
	for i, g := range in.models {
		st, err := g.GetState(context.Background(), data.AttrPos, data.AttrVel)
		if err != nil {
			return err
		}
		st.Key = nil
		if got := kernel.DigestState(st); got != in.want[i] {
			return fmt.Errorf("worker %d state digest %016x, want %016x", i, got, in.want[i])
		}
	}
	return nil
}

func (in *rpcInstance) virtual() time.Duration    { return in.sim.Elapsed() }
func (in *rpcInstance) failed() int               { return 0 }
func (in *rpcInstance) recorder() *trace.Recorder { return in.tb.Recorder }

func (in *rpcInstance) layer(ops int) map[string]float64 {
	return map[string]float64{
		"core.sync_kick_virtual_us":       float64(in.syncVirtual) / 1e3 / float64(ops),
		"core.pipelined_round_virtual_us": float64(in.pipeVirtual) / 1e3 / float64(ops),
	}
}

func (in *rpcInstance) close(sp *spanRec) {
	stopSim(in.sim, sp)
	closeTestbed(in.tb, sp)
}

// newTestbed, stopSim and closeTestbed put the spans every workload's
// set-up and teardown share around the calls they time.
func newTestbed(build func() (*core.Testbed, error), sp *spanRec) (*core.Testbed, error) {
	id := sp.under("deploy.testbed_build")
	tb, err := build()
	sp.end(id)
	return tb, err
}

func stopSim(sim *core.Simulation, sp *spanRec) {
	id := sp.under("core.worker_stop")
	// A worker that fails to stop cleanly is torn down with the testbed.
	_ = sim.Stop()
	sp.end(id)
}

func closeTestbed(tb *core.Testbed, sp *spanRec) {
	id := sp.under("deploy.testbed_close")
	tb.Close()
	sp.end(id)
}
