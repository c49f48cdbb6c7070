package core

import (
	"context"
	"testing"
	"time"

	"jungle/internal/amuse/data"
	"jungle/internal/amuse/ic"
	"jungle/internal/core/kernel"
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
	want := []time.Duration{3577017, 6276419, 8939203, 8939203, 11601987, 9381471, 11601987,
		14300359, 14300359, 17802728, 23525424, 26223866}
	const wantLoopback = 60112
	if lb := tb.Recorder.TotalByClass()["loopback"]; lb != wantLoopback || !equalDurations(got, want) {
		t.Fatalf("loopback bytes %d, want %d\nvirtual times %#v\nwant          %#v", lb, wantLoopback, got, want)
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
