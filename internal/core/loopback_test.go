package core

import (
	"context"
	"testing"
	"time"

	"jungle/internal/amuse/data"
	"jungle/internal/amuse/ic"
	"jungle/internal/core/kernel"
	"jungle/internal/trace"
)

// TestLoopbackHopPricedAsSocket: a worker's proxy dispatches into its model
// service in line, and prices that hop as the §5 loopback socket it stands
// for — each direction's bytes under class "loopback", each arrival at its
// send time plus the loopback path's transfer time for that many bytes. A
// scripted session on one ibis worker crosses the hop every way the proxy
// uses it: relayed calls (set_particles, an awaited kick, a pipelined kick,
// get_state), a transfer into the worker (accept's apply) and one out of it
// (offer's get_state), and a checkpoint (relayed too). The session's
// elapsed time, every call's virtual completion time and the loopback
// class's bytes are the numbers the socket gave.
func TestLoopbackHopPricedAsSocket(t *testing.T) {
	tb, sim := labSim(t)
	ctx := context.Background()
	w, err := sim.NewGravity(ctx, WorkerSpec{Resource: "lgm", Channel: ChannelIbis}, GravityOptions{Eps: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	peer, err := sim.NewGravity(ctx, WorkerSpec{Resource: "das4-vu", Channel: ChannelIbis}, GravityOptions{Eps: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	const n = 64
	if err := peer.SetParticles(ic.Plummer(n, 5)); err != nil {
		t.Fatal(err)
	}
	var got []time.Duration
	mark := func() { got = append(got, sim.Elapsed()) }
	wait := func(cs ...*Call) {
		t.Helper()
		for _, c := range cs {
			if err := c.Wait(ctx); err != nil {
				t.Fatal(err)
			}
		}
		for _, c := range cs {
			got = append(got, c.doneAt)
		}
		mark()
	}
	mark()
	if err := w.SetParticles(ic.Plummer(n, 6)); err != nil {
		t.Fatal(err)
	}
	mark()
	dv := make([]data.Vec3, n)
	wait(w.Go("kick", kernel.KickArgs{DV: dv}))
	wait(w.Go("kick", kernel.KickArgs{DV: dv}), peer.Go("kick", kernel.KickArgs{DV: dv}))
	wait(w.goGetState([]string{data.AttrMass, data.AttrPos, data.AttrVel}, func(kernel.StateView) error { return nil }))
	if err := sim.TransferState(ctx, peer, w); err != nil {
		t.Fatal(err)
	}
	mark()
	if err := sim.TransferState(ctx, w, peer); err != nil {
		t.Fatal(err)
	}
	mark()
	if st := sim.TransferStats(); st.Direct != 2 || st.Fallback != 0 || st.Hairpin != 0 {
		t.Fatalf("transfer stats %+v, want both transfers direct", st)
	}
	if _, err := sim.Checkpoint(ctx); err != nil {
		t.Fatal(err)
	}
	mark()

	// Read from the loopback socket the hop replaced.
	want := []time.Duration{3156679, 5431895, 7674163, 7674163, 9916431, 8116431, 9916431,
		12194455, 12194455, 15696824, 20999142, 23277264}
	const wantLoopback = 60112
	if lb := tb.Recorder.TotalByClass()["loopback"]; lb != wantLoopback || !equalDurations(got, want) {
		t.Fatalf("loopback bytes %d, want %d\nvirtual times %#v\nwant          %#v", lb, wantLoopback, got, want)
	}
}

// TestRequestPortsReverse: the daemon reaches each of four solo workers
// (LGM, VU, UvA, TUD) over a raw connection, so a call's request crosses
// the daemon-worker host pair as class "ipl" and no byte of a round of
// calls crosses a hub. The desktop sits at VU, so VU's port is direct; the
// three firewalled sites' ports are reverse (the worker dials back), the
// first one dialled included.
func TestRequestPortsReverse(t *testing.T) {
	tb, sim := labSim(t)
	ctx := context.Background()
	var gs []*Gravity
	for _, res := range []string{"lgm", "das4-vu", "das4-uva", "das4-tud"} {
		g, err := sim.NewGravity(ctx, WorkerSpec{Resource: res, Channel: ChannelIbis}, GravityOptions{Eps: 0.01})
		if err != nil {
			t.Fatal(err)
		}
		gs = append(gs, g)
	}
	d := tb.Daemon
	daemonHost := d.ibis.Identifier().Host
	before := tb.Recorder.TrafficTable()
	for _, g := range gs {
		if err := g.SetParticles(ic.Plummer(16, 1)); err != nil {
			t.Fatal(err)
		}
	}
	ipl, hub := make(map[string]int), 0
	for i, rows := range [][]trace.TrafficRow{before, tb.Recorder.TrafficTable()} {
		sign := 2*i - 1
		for _, row := range rows {
			switch {
			case row.Class == "hub":
				hub += sign * row.Bytes
			case row.From == daemonHost && row.Class == "ipl":
				ipl[row.To] += sign * row.Bytes
			}
		}
	}
	if hub != 0 {
		t.Errorf("a round of calls moved %d hub-class bytes: some port is routed through the hubs", hub)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	var reverse []string
	for id, wh := range d.workers {
		host := wh.member.Host
		if ipl[host] == 0 {
			t.Errorf("worker %d (%s): the call's request did not cross %s -> %s", id, wh.spec.Resource, daemonHost, host)
		}
		if direct, err := tb.Net.AllowsInboundFrom(host, daemonHost, wh.member.Port+1); err != nil {
			t.Fatal(err)
		} else if !direct {
			reverse = append(reverse, wh.spec.Resource)
		}
	}
	if len(d.workers) != 4 || len(reverse) != 3 {
		t.Fatalf("%d workers, reverse on %v; want 4 workers, reverse on lgm, das4-uva and das4-tud", len(d.workers), reverse)
	}
}

func equalDurations(a, b []time.Duration) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
