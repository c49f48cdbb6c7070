package core

import (
	"context"
	"math"
	"strings"
	"testing"
	"time"

	"jungle/internal/amuse/data"
	"jungle/internal/amuse/ic"
	"jungle/internal/phys/bridge"
)

// dslSim builds the DSL testbed (slow coupler uplink, two fast remote
// sites) with a running session.
func dslSim(t *testing.T) (*Testbed, *Simulation) {
	t.Helper()
	tb, err := NewDSLTestbed()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(tb.Close)
	sim := NewSimulation(context.Background(), tb.Daemon, nil)
	t.Cleanup(func() { sim.Stop() })
	return tb, sim
}

// transferPair starts two remote gravity workers on separate sites and
// uploads stars to the source one.
func transferPair(t *testing.T, sim *Simulation, stars *data.Particles) (src, dst *Gravity) {
	t.Helper()
	var err error
	src, err = sim.NewGravity(context.Background(),
		WorkerSpec{Resource: "site-a", Channel: ChannelIbis}, GravityOptions{Eps: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	if err := src.SetParticles(stars); err != nil {
		t.Fatal(err)
	}
	dst, err = sim.NewGravity(context.Background(),
		WorkerSpec{Resource: "site-b", Channel: ChannelIbis}, GravityOptions{Eps: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	// The destination needs a same-sized set for set_state to land in.
	if err := dst.SetParticles(ic.Plummer(stars.Len(), 99)); err != nil {
		t.Fatal(err)
	}
	return src, dst
}

// assertStateMatches pulls both workers' state and compares columns.
func assertStateMatches(t *testing.T, src, dst *Gravity, n int) {
	t.Helper()
	want, err := src.GetState(nil, data.AttrMass, data.AttrPos, data.AttrVel)
	if err != nil {
		t.Fatal(err)
	}
	got, err := dst.GetState(nil, data.AttrMass, data.AttrPos, data.AttrVel)
	if err != nil {
		t.Fatal(err)
	}
	if want.N != n || got.N != n {
		t.Fatalf("state sizes: src %d dst %d, want %d", want.N, got.N, n)
	}
	for i := 0; i < n; i++ {
		if want.Float(data.AttrMass)[i] != got.Float(data.AttrMass)[i] {
			t.Fatalf("mass[%d]: src %v dst %v", i, want.Float(data.AttrMass)[i], got.Float(data.AttrMass)[i])
		}
		if want.Vec(data.AttrPos)[i] != got.Vec(data.AttrPos)[i] {
			t.Fatalf("pos[%d]: src %v dst %v", i, want.Vec(data.AttrPos)[i], got.Vec(data.AttrPos)[i])
		}
		if want.Vec(data.AttrVel)[i] != got.Vec(data.AttrVel)[i] {
			t.Fatalf("vel[%d]: src %v dst %v", i, want.Vec(data.AttrVel)[i], got.Vec(data.AttrVel)[i])
		}
	}
}

// TestTransferStateDirect moves columns worker-to-worker and checks the
// bytes never crossed the coupler's uplink.
func TestTransferStateDirect(t *testing.T) {
	tb, sim := dslSim(t)
	const n = 256
	src, dst := transferPair(t, sim, ic.Plummer(n, 7))

	homeBefore := couplerBytes(tb)
	if err := sim.TransferState(context.Background(), src, dst); err != nil {
		t.Fatal(err)
	}
	homeDuring := couplerBytes(tb) - homeBefore

	st := sim.TransferStats()
	if st.Direct != 1 || st.Fallback != 0 || st.Hairpin != 0 {
		t.Fatalf("transfer stats %+v, want exactly one direct", st)
	}
	// The column payload is ~56 bytes/particle; the coupler's links must
	// have carried only control traffic while the peer class carried the
	// bulk.
	payload := n * 56
	if homeDuring > payload/2 {
		t.Fatalf("coupler uplink carried %d bytes during a direct transfer (payload %d)", homeDuring, payload)
	}
	if peer := tb.Recorder.TotalByClass()["peer"]; peer < payload {
		t.Fatalf("peer class carried %d bytes, want >= %d", peer, payload)
	}
	assertStateMatches(t, src, dst, n)
}

// couplerBytes sums recorded traffic with an endpoint on the coupler's
// machine.
func couplerBytes(tb *Testbed) int {
	var total int
	for _, row := range tb.Recorder.TrafficTable() {
		if row.From == tb.Client || row.To == tb.Client {
			total += row.Bytes
		}
	}
	return total
}

// TestTransferStateDirectBeatsHairpin is the acceptance bar: on the DSL
// topology the direct path must model at least 1.5x less virtual time
// per transfer than the Pull/Push hairpin (it models far more).
func TestTransferStateDirectBeatsHairpin(t *testing.T) {
	_, sim := dslSim(t)
	const n = 1000
	src, dst := transferPair(t, sim, ic.Plummer(n, 11))

	start := sim.Elapsed()
	if err := sim.TransferState(context.Background(), src, dst); err != nil {
		t.Fatal(err)
	}
	direct := sim.Elapsed() - start

	// The hairpin the direct path replaces: pull to the coupler, push out.
	start = sim.Elapsed()
	st, err := src.GetState(nil, data.AttrMass, data.AttrPos, data.AttrVel)
	if err != nil {
		t.Fatal(err)
	}
	if err := dst.SetState(nil, st); err != nil {
		t.Fatal(err)
	}
	hairpin := sim.Elapsed() - start

	if float64(hairpin) < 1.5*float64(direct) {
		t.Fatalf("direct transfer %v vs hairpin %v: want >= 1.5x win", direct, hairpin)
	}
	t.Logf("modelled per-transfer time: direct %v, hairpin %v (%.1fx)",
		direct, hairpin, float64(hairpin)/float64(direct))
}

// TestTransferStateHairpinForLocalWorkers: a worker without a peer plane
// (mpi channel) transfers through the coupler transparently.
func TestTransferStateHairpinForLocalWorkers(t *testing.T) {
	_, sim := dslSim(t)
	const n = 64
	local, err := sim.NewGravity(context.Background(),
		WorkerSpec{Resource: "home", Channel: ChannelMPI}, GravityOptions{Eps: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	stars := ic.Plummer(n, 3)
	if err := local.SetParticles(stars); err != nil {
		t.Fatal(err)
	}
	remote, err := sim.NewGravity(context.Background(),
		WorkerSpec{Resource: "site-b", Channel: ChannelIbis}, GravityOptions{Eps: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	if err := remote.SetParticles(ic.Plummer(n, 4)); err != nil {
		t.Fatal(err)
	}
	if err := sim.TransferState(context.Background(), local, remote); err != nil {
		t.Fatal(err)
	}
	if st := sim.TransferStats(); st.Hairpin != 1 || st.Direct != 0 {
		t.Fatalf("transfer stats %+v, want one hairpin", st)
	}
	got, err := remote.GetState(nil, data.AttrMass)
	if err != nil {
		t.Fatal(err)
	}
	for i, m := range got.Float(data.AttrMass) {
		if m != stars.Mass[i] {
			t.Fatalf("mass[%d] = %v, want %v", i, m, stars.Mass[i])
		}
	}
}

// TestTransferFaultFallsBackToHairpin is the fault-injection satellite:
// the peer stream dies mid-transfer, the coupler observes a structured
// transport-class error (no hang), falls back to the hairpin — counted
// once in TransferStats and on the link-health row — and the transfer
// still completes with correct state.
func TestTransferFaultFallsBackToHairpin(t *testing.T) {
	oldTimeout := PeerAcceptTimeout
	PeerAcceptTimeout = 500 * time.Millisecond
	testPeerStreamFault = func() bool { return true }
	t.Cleanup(func() {
		PeerAcceptTimeout = oldTimeout
		testPeerStreamFault = nil
	})

	tb, sim := dslSim(t)

	const n = 128
	src, dst := transferPair(t, sim, ic.Plummer(n, 5))

	done := make(chan error, 1)
	go func() { done <- sim.TransferState(context.Background(), src, dst) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("transfer did not complete over the fallback: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("transfer hung after mid-stream fault")
	}

	// Only a classified direct-path failure falls back (isPeerPathErr), so
	// the link-health row's fallback count is the classified one.
	if st := assertLinksMatchStats(t, tb, sim); st.Fallback != 1 {
		t.Fatalf("transfer stats %+v, want one fallback", st)
	}
	assertStateMatches(t, src, dst, n)
}

// TestBridgeStepCompletesUnderTransferFault drives a full coupled bridge
// step with the stream fault injected: every staged exchange falls back
// and the step still completes.
func TestBridgeStepCompletesUnderTransferFault(t *testing.T) {
	oldTimeout := PeerAcceptTimeout
	PeerAcceptTimeout = 500 * time.Millisecond
	testPeerStreamFault = func() bool { return true }
	t.Cleanup(func() {
		PeerAcceptTimeout = oldTimeout
		testPeerStreamFault = nil
	})

	_, sim := dslSim(t)
	br := coupledBridge(t, sim)
	done := make(chan error, 1)
	go func() { done <- br.Step(context.Background()) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("bridge step under fault: %v", err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("bridge step hung under transfer fault")
	}
	if st := sim.TransferStats(); st.Fallback == 0 {
		t.Fatalf("transfer stats %+v: fault injected but nothing fell back", st)
	}
}

// TestBridgeStepUsesDirectPlane: the same coupled step on a healthy
// network moves its field inputs worker-to-worker.
func TestBridgeStepUsesDirectPlane(t *testing.T) {
	_, sim := dslSim(t)
	br := coupledBridge(t, sim)
	if err := br.Step(context.Background()); err != nil {
		t.Fatal(err)
	}
	st := sim.TransferStats()
	// Two kick phases x two directions x two staged inputs = 8 transfers.
	if st.Direct == 0 || st.Fallback != 0 || st.Hairpin != 0 {
		t.Fatalf("transfer stats %+v, want all-direct staging", st)
	}
}

// coupledBridge assembles a small stars+gas+field system on the two DSL
// sites (stellar omitted: the transfer plane does not touch it).
func coupledBridge(t *testing.T, sim *Simulation) *bridge.Bridge {
	t.Helper()
	stars, gas, err := ic.EmbeddedCluster(ic.ClusterSpec{Stars: 12, Gas: 40, GasFrac: 0.6, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	g, err := sim.NewGravity(context.Background(),
		WorkerSpec{Resource: "site-a", Channel: ChannelIbis}, GravityOptions{Eps: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	if err := g.SetParticles(stars); err != nil {
		t.Fatal(err)
	}
	h, err := sim.NewHydro(context.Background(),
		WorkerSpec{Resource: "site-b", Channel: ChannelIbis}, HydroOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := h.SetParticles(gas); err != nil {
		t.Fatal(err)
	}
	f, err := sim.NewField(context.Background(),
		WorkerSpec{Resource: "site-b", Channel: ChannelIbis}, FieldOptions{Kernel: "octgrav", Eps: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	br, err := bridge.New(bridge.Config{
		Stars: g, Gas: h, Coupler: f, DT: 1.0 / 64, Eps: 0.05,
	})
	if err != nil {
		t.Fatal(err)
	}
	return br
}

// TestRemoteChannelCopy: TransferState is AMUSE's channel copy for
// worker-resident sets, including the attribute-error naming guarantee.
func TestRemoteChannelCopy(t *testing.T) {
	_, sim := dslSim(t)
	const n = 32
	src, dst := transferPair(t, sim, ic.Plummer(n, 21))

	ctx := context.Background()
	if err := sim.TransferState(ctx, src, dst); err != nil {
		t.Fatal(err)
	}
	assertStateMatches(t, src, dst, n)

	// An attribute the destination kind cannot apply: the error must name
	// it (satellite: Channel.Copy attribute-missing diagnosability, remote
	// flavor). "u" is readable from hydro but gravity has no such column —
	// here neither side is a hydro, so the source read already names it.
	err := sim.TransferState(ctx, src, dst, data.AttrInternalEnergy)
	if err == nil {
		t.Fatal("copy of unsupported attribute succeeded")
	}
	if !strings.Contains(err.Error(), data.AttrInternalEnergy) {
		t.Fatalf("error %q does not name attribute %q", err, data.AttrInternalEnergy)
	}
}

// TestRemoteChannelDestinationMissingAttr: the source offers the column,
// the destination kind cannot apply it; the failure names the attribute.
func TestRemoteChannelDestinationMissingAttr(t *testing.T) {
	_, sim := dslSim(t)
	const n = 24
	_, gasSet, err := ic.EmbeddedCluster(ic.ClusterSpec{Stars: 1, Gas: n, GasFrac: 0.9, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	h, err := sim.NewHydro(context.Background(),
		WorkerSpec{Resource: "site-a", Channel: ChannelIbis}, HydroOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := h.SetParticles(gasSet); err != nil {
		t.Fatal(err)
	}
	g, err := sim.NewGravity(context.Background(),
		WorkerSpec{Resource: "site-b", Channel: ChannelIbis}, GravityOptions{Eps: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	if err := g.SetParticles(ic.Plummer(gasSet.Len(), 9)); err != nil {
		t.Fatal(err)
	}
	// Internal energy is readable from the hydro worker but the gravity
	// kind has nowhere to put it.
	err = sim.TransferState(context.Background(), h, g, data.AttrInternalEnergy)
	if err == nil {
		t.Fatal("copy of attribute absent from destination succeeded")
	}
	if !strings.Contains(err.Error(), data.AttrInternalEnergy) {
		t.Fatalf("error %q does not name attribute %q", err, data.AttrInternalEnergy)
	}
}

// TestTransferStateSelf: src == dst must not take the peer plane (the
// worker's single-threaded relay loop would deadlock its own accept
// against its offer until the timeout); it completes promptly over the
// hairpin.
func TestTransferStateSelf(t *testing.T) {
	_, sim := dslSim(t)
	g, err := sim.NewGravity(context.Background(),
		WorkerSpec{Resource: "site-a", Channel: ChannelIbis}, GravityOptions{Eps: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	if err := g.SetParticles(ic.Plummer(16, 31)); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := sim.TransferState(ctx, g, g); err != nil {
		t.Fatalf("self transfer: %v", err)
	}
	if st := sim.TransferStats(); st.Hairpin != 1 || st.Direct != 0 {
		t.Fatalf("transfer stats %+v, want one hairpin", st)
	}
}

// TestFailedOfferUnblocksAccept: when the source cannot serve the
// requested columns (a worker fault, not a transport fault), the daemon
// aborts the pending accept so the destination's relay loop — and every
// RPC queued behind it — is not held for the accept timeout.
func TestFailedOfferUnblocksAccept(t *testing.T) {
	_, sim := dslSim(t)
	const n = 16
	src, dst := transferPair(t, sim, ic.Plummer(n, 33))

	// Gravity workers have no "u" column: the offer's get_state fails.
	err := sim.TransferState(context.Background(), src, dst, data.AttrInternalEnergy)
	if err == nil || !strings.Contains(err.Error(), data.AttrInternalEnergy) {
		t.Fatalf("transfer of unsupported attribute: %v", err)
	}
	// The destination must answer new RPCs well before PeerAcceptTimeout.
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
	defer cancel()
	if _, err := dst.GetState(ctx, data.AttrMass); err != nil {
		t.Fatalf("destination relay loop still blocked after failed offer: %v", err)
	}
}

// TestDirectFieldMatchesSampledField: the staged evaluation must be
// bit-identical to the sampled FieldAt path (same kernel, same inputs).
func TestDirectFieldMatchesSampledField(t *testing.T) {
	_, sim := dslSim(t)
	stars, gas, err := ic.EmbeddedCluster(ic.ClusterSpec{Stars: 10, Gas: 30, GasFrac: 0.6, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	g, err := sim.NewGravity(context.Background(),
		WorkerSpec{Resource: "site-a", Channel: ChannelIbis}, GravityOptions{Eps: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	if err := g.SetParticles(stars); err != nil {
		t.Fatal(err)
	}
	h, err := sim.NewHydro(context.Background(),
		WorkerSpec{Resource: "site-b", Channel: ChannelIbis}, HydroOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := h.SetParticles(gas); err != nil {
		t.Fatal(err)
	}
	f, err := sim.NewField(context.Background(),
		WorkerSpec{Resource: "site-b", Channel: ChannelIbis}, FieldOptions{Kernel: "octgrav", Eps: 0.05})
	if err != nil {
		t.Fatal(err)
	}

	accDirect, _, _, err := f.GoFieldDirect(h, g).Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	accSampled, _, _, err := f.GoFieldAt(h.Masses(), h.Positions(), g.Positions(), 0).Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(accDirect) != len(accSampled) {
		t.Fatalf("lengths %d vs %d", len(accDirect), len(accSampled))
	}
	for i := range accDirect {
		for k := 0; k < 3; k++ {
			if math.Abs(accDirect[i][k]-accSampled[i][k]) > 0 {
				t.Fatalf("acc[%d][%d]: direct %v sampled %v", i, k, accDirect[i][k], accSampled[i][k])
			}
		}
	}
}
