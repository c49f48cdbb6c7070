package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"jungle/internal/amuse/data"
	"jungle/internal/amuse/ic"
	"jungle/internal/core"
	"jungle/internal/core/kernel"
	"jungle/internal/exp"
	"jungle/internal/ipl"
	"jungle/internal/mpisim"
	"jungle/internal/phys/abm"
	"jungle/internal/phys/bridge"
	"jungle/internal/phys/nbody"
	"jungle/internal/phys/sph"
	"jungle/internal/phys/stellar"
	"jungle/internal/phys/tree"
	"jungle/internal/smartsockets"
	"jungle/internal/trace"
	"jungle/internal/vnet"
	"jungle/internal/vtime"
)

// A probe times one layer's public functions directly, on the payloads the
// workloads put through them. Each runs until probeCalls calls or
// probeBudget have passed and reports the median.
const (
	probeCalls  = 1000
	probeBudget = 500 * time.Millisecond
	smallMsg    = 256     // bytes; a kick RPC frame is of this order
	bulkMsg     = 1 << 20 // bytes
)

// probed is what one probe measured.
type probed struct {
	ns     float64 // median wall time per call
	allocs float64 // mean heap allocations per call, all goroutines
}

// probe calls f in batches (batch > 1 for calls too short to time one by
// one) and returns the median per-call time over the batches.
func probe(batch int, f func() error) (probed, error) {
	var m0, m1 runtime.MemStats
	var samples []float64
	calls := 0
	runtime.ReadMemStats(&m0)
	for start := time.Now(); calls < probeCalls && (time.Since(start) < probeBudget || calls < 5*batch); {
		t0 := time.Now()
		for i := 0; i < batch; i++ {
			if err := f(); err != nil {
				return probed{}, err
			}
		}
		samples = append(samples, float64(time.Since(t0))/float64(batch))
		calls += batch
	}
	runtime.ReadMemStats(&m1)
	return probed{ns: median(samples), allocs: float64(m1.Mallocs-m0.Mallocs) / float64(calls)}, nil
}

// probeSet collects the metrics the probes produce, by name.
type probeSet map[string]float64

// runProbes runs every layer probe. The inputs are the workloads' own:
// the coupled step's cluster for the physics kernels, the bulk transfer's
// 50 000-star columns for the state codec, a 64-star zero kick for the RPC
// codecs.
func runProbes(seed int64) (probeSet, error) {
	ps := make(probeSet)
	for _, p := range []struct {
		layer string
		run   func(probeSet, int64) error
	}{
		{"vnet", probeVnet}, {"smartsockets", probeSmartsockets}, {"ipl", probeIPL},
		{"core", probeLocalCall}, {"kernel", probeKernel}, {"mpisim", probeMPI},
		{"phys", probePhys}, {"trace", probeTrace},
	} {
		if err := p.run(ps, seed); err != nil {
			return nil, fmt.Errorf("%s probe: %w", p.layer, err)
		}
	}
	return ps, nil
}

func probeVnet(ps probeSet, _ int64) error {
	n := vnet.New()
	for _, h := range []string{"a", "b"} {
		if _, err := n.AddHost(h, "site", vnet.Open); err != nil {
			return err
		}
	}
	if err := n.AddLink("a", "b", 100*time.Microsecond, 1.25e9); err != nil {
		return err
	}
	l, err := n.Listen("b", 9000)
	if err != nil {
		return err
	}
	defer l.Close()
	conn, err := n.Dial("a", "b", 9000)
	if err != nil {
		return err
	}
	defer conn.Close()
	srv, err := l.Accept()
	if err != nil {
		return err
	}
	for _, c := range []struct {
		name  string
		size  int
		scale float64
	}{{"vnet.send_recv_small_ns", smallMsg, 1}, {"vnet.send_recv_mb_us", bulkMsg, 1e-3}} {
		msg := make([]byte, c.size)
		p, err := probe(1, func() error {
			if _, err := conn.Send(msg, 0); err != nil {
				return err
			}
			_, err := srv.Recv()
			return err
		})
		if err != nil {
			return err
		}
		ps[c.name] = p.ns * c.scale
	}
	return nil
}

// overlayNet is two sites, each an open hub host and a client host, joined
// hub to hub: the smallest network on which a connection between the two
// clients is direct when they are open and hub-routed when both are
// firewalled.
type overlayNet struct {
	net     *vnet.Network
	rec     *trace.Recorder
	overlay *smartsockets.Overlay
}

func newOverlayNet(clients vnet.Policy) (*overlayNet, error) {
	n := vnet.New()
	rec := trace.New()
	n.SetRecorder(rec)
	for _, h := range []struct {
		name, site string
		p          vnet.Policy
	}{{"hub-a", "a", vnet.Open}, {"client-a", "a", clients}, {"hub-b", "b", vnet.Open}, {"client-b", "b", clients}} {
		if _, err := n.AddHost(h.name, h.site, h.p); err != nil {
			return nil, err
		}
	}
	for _, l := range []struct {
		a, b string
		lat  time.Duration
		bw   float64
	}{{"hub-a", "client-a", 100 * time.Microsecond, 1.25e9}, {"hub-b", "client-b", 100 * time.Microsecond, 1.25e9},
		{"hub-a", "hub-b", time.Millisecond, 1.25e9}} {
		if err := n.AddLink(l.a, l.b, l.lat, l.bw); err != nil {
			return nil, err
		}
	}
	ov, err := smartsockets.StartHubs(n, []string{"hub-a", "hub-b"})
	if err != nil {
		return nil, err
	}
	return &overlayNet{net: n, rec: rec, overlay: ov}, nil
}

// wireBytes sums the recorder's traffic over every class.
func wireBytes(rec *trace.Recorder) int {
	total := 0
	for _, b := range rec.TotalByClass() {
		total += b
	}
	return total
}

// echo answers every message on conn with the same bytes until it closes.
func echo(conn *smartsockets.VirtualConn, done chan<- struct{}) {
	defer close(done)
	for {
		m, err := conn.Recv()
		if err != nil {
			return
		}
		if err := conn.Send(m.Data, m.Arrival); err != nil {
			return
		}
	}
}

// pingPong measures round trips of a size-byte message between two client
// factories of an overlay network, and the connect that precedes them.
func pingPong(on *overlayNet, want smartsockets.ConnType, size int, connects bool) (rtt, connect probed, wire float64, err error) {
	fa, err := smartsockets.NewFactory(on.net, "client-a", 20000, "hub-a")
	if err != nil {
		return
	}
	defer fa.Close()
	fb, err := smartsockets.NewFactory(on.net, "client-b", 20000, "hub-b")
	if err != nil {
		return
	}
	defer fb.Close()
	l, err := fb.Listen(21000)
	if err != nil {
		return
	}
	defer l.Close()
	if connects {
		connect, err = probe(1, func() error {
			c, err := fa.Connect(l.Addr(), 0)
			if err != nil {
				return err
			}
			s, err := l.Accept()
			if err != nil {
				return err
			}
			s.Close()
			return c.Close()
		})
		if err != nil {
			return
		}
	}
	conn, err := fa.Connect(l.Addr(), 0)
	if err != nil {
		return
	}
	if conn.Type() != want {
		err = fmt.Errorf("connection is %v, want %v", conn.Type(), want)
		return
	}
	srv, err := l.Accept()
	if err != nil {
		return
	}
	done := make(chan struct{})
	go echo(srv, done)
	defer func() {
		conn.Close()
		srv.Close()
		<-done
	}()
	msg := make([]byte, size)
	before, trips := wireBytes(on.rec), 0
	rtt, err = probe(1, func() error {
		trips++
		if err := conn.Send(msg, 0); err != nil {
			return err
		}
		_, err := conn.Recv()
		return err
	})
	wire = float64(wireBytes(on.rec)-before) / float64(trips)
	return
}

func probeSmartsockets(ps probeSet, _ int64) error {
	open, err := newOverlayNet(vnet.Open)
	if err != nil {
		return err
	}
	defer open.overlay.Stop()
	direct, _, _, err := pingPong(open, smartsockets.Direct, smallMsg, false)
	if err != nil {
		return err
	}
	stream, _, _, err := pingPong(open, smartsockets.Direct, bulkMsg, false)
	if err != nil {
		return err
	}
	walled, err := newOverlayNet(vnet.OutboundOnly)
	if err != nil {
		return err
	}
	defer walled.overlay.Stop()
	routed, connect, wire, err := pingPong(walled, smartsockets.Routed, smallMsg, true)
	if err != nil {
		return err
	}
	ps["smartsockets.direct_rtt_ns"] = direct.ns
	ps["smartsockets.routed_rtt_ns"] = routed.ns
	ps["smartsockets.routed_rtt_allocs"] = routed.allocs
	ps["smartsockets.routed_wire_bytes"] = wire
	ps["smartsockets.connect_routed_us"] = connect.ns / 1e3
	// One direction of the 1 MiB echo: what a peer-plane stream costs.
	ps["smartsockets.stream_mb_us"] = stream.ns / 2 / 1e3
	return nil
}

func probeIPL(ps probeSet, _ int64) error {
	n := vnet.New()
	if _, err := n.AddHost("hub", "site", vnet.Open); err != nil {
		return err
	}
	for _, h := range []string{"m0", "m1"} {
		if _, err := n.AddHost(h, "site", vnet.Open); err != nil {
			return err
		}
		if err := n.AddLink("hub", h, 100*time.Microsecond, 1.25e9); err != nil {
			return err
		}
	}
	ov, err := smartsockets.StartHubs(n, []string{"hub"})
	if err != nil {
		return err
	}
	defer ov.Stop()
	reg, err := ipl.NewRegistry(n, "hub", "hub")
	if err != nil {
		return err
	}
	defer reg.Close()
	join := func(host string) (*ipl.Ibis, error) {
		return ipl.Create(n, ipl.Config{Pool: "probe", Host: host, BasePort: 20000, HubHost: "hub", Registry: reg.Addr()})
	}
	a, err := join("m0")
	if err != nil {
		return err
	}
	defer a.End()
	// A join is timed until the pool has seen the member leave again: a
	// join that overlaps the previous leave's broadcast can read that event
	// where it expects its ack (ROADMAP item 1a, "bad join ack").
	churn, err := probe(1, func() error {
		b, err := join("m1")
		if err != nil {
			return err
		}
		b.End()
		for ev := range a.Events() {
			if ev.Kind == ipl.Left || ev.Kind == ipl.Died {
				return nil
			}
		}
		return fmt.Errorf("pool never saw the member leave")
	})
	if err != nil {
		return err
	}
	ps["ipl.join_leave_us"] = churn.ns / 1e3

	b, err := join("m1")
	if err != nil {
		return err
	}
	defer b.End()
	there, err := b.CreateReceivePort(ipl.OneToOne, "there", nil)
	if err != nil {
		return err
	}
	back, err := a.CreateReceivePort(ipl.OneToOne, "back", nil)
	if err != nil {
		return err
	}
	out, ret := a.CreateSendPort(ipl.OneToOne, "out"), b.CreateSendPort(ipl.OneToOne, "ret")
	if err := out.Connect(b.Identifier(), "there", 0); err != nil {
		return err
	}
	if err := ret.Connect(a.Identifier(), "back", 0); err != nil {
		return err
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			m, err := there.Receive()
			if err != nil {
				return
			}
			if err := ret.Write(m.Data, m.Arrival); err != nil {
				return
			}
		}
	}()
	msg := make([]byte, smallMsg)
	rtt, err := probe(1, func() error {
		if err := out.Write(msg, 0); err != nil {
			return err
		}
		_, err := back.Receive()
		return err
	})
	there.Close()
	<-done
	if err != nil {
		return err
	}
	ps["ipl.port_rtt_ns"] = rtt.ns
	ps["ipl.port_rtt_allocs"] = rtt.allocs
	return nil
}

// probeLocalCall times the rpc_kick call on a worker behind the in-process
// channel: the floor under core.sync_kick_us, whose distance from it is the
// network stack's share.
func probeLocalCall(ps probeSet, seed int64) error {
	tb, err := core.NewLabTestbed()
	if err != nil {
		return err
	}
	defer tb.Close()
	ctx := context.Background()
	sim := core.NewSimulation(ctx, tb.Daemon, nil)
	defer sim.Stop()
	g, err := sim.NewGravity(ctx, core.WorkerSpec{Resource: tb.Client, Channel: core.ChannelMPI}, core.GravityOptions{Eps: 0.01})
	if err != nil {
		return err
	}
	if err := g.SetParticles(ic.Plummer(rpcStars, seed)); err != nil {
		return err
	}
	dv := make([]data.Vec3, rpcStars)
	p, err := probe(1, func() error { return g.Kick(ctx, dv) })
	if err != nil {
		return err
	}
	ps["core.local_call_ns"] = p.ns
	return nil
}

func probeKernel(ps probeSet, seed int64) error {
	st, err := kernel.GatherState(ic.Plummer(bulkStars, seed*2), bulkAttrs...)
	if err != nil {
		return err
	}
	var wire []byte
	enc, err := probe(1, func() (err error) {
		wire, err = kernel.MarshalState(st)
		return err
	})
	if err != nil {
		return err
	}
	dec, err := probe(1, func() error {
		_, err := kernel.UnmarshalState(wire)
		return err
	})
	if err != nil {
		return err
	}
	mb := float64(len(wire)) / (1 << 20)
	ps["kernel.marshal_state_us_per_mb"] = enc.ns / 1e3 / mb
	ps["kernel.unmarshal_state_us_per_mb"] = dec.ns / 1e3 / mb
	ps["kernel.state_codec_allocs"] = enc.allocs + dec.allocs

	kick := kernel.KickArgs{DV: make([]data.Vec3, rpcStars)}
	var args []byte
	gob, err := probe(10, func() error {
		args = kernel.Encode(kick)
		var back kernel.KickArgs
		return kernel.Decode(args, &back)
	})
	if err != nil {
		return err
	}
	ps["kernel.args_gob_ns"] = gob.ns
	ps["kernel.args_gob_allocs"] = gob.allocs

	// One RPC's framing: request out and in, response out and in.
	var buf []byte
	frame, err := probe(100, func() error {
		buf = kernel.AppendRequest(buf[:0], &kernel.Request{ID: 7, Worker: 3, Method: "kick", Args: args})
		var req kernel.Request
		if err := kernel.UnmarshalRequest(buf, &req); err != nil {
			return err
		}
		buf = kernel.AppendResponse(buf[:0], &kernel.Response{ID: 7, Result: args[:8]})
		var resp kernel.Response
		return kernel.UnmarshalResponse(buf, &resp)
	})
	if err != nil {
		return err
	}
	ps["kernel.rpc_frame_ns"] = frame.ns
	return nil
}

// vuCluster is the DAS-4 VU cluster of the lab testbed, where the coupled
// step's hydro worker runs its 8 MPI ranks.
func vuCluster() (*vnet.Network, *vnet.Cluster, error) {
	n := vnet.New()
	c, err := n.AddCluster(vnet.ClusterSpec{
		Name: "das4-vu", Site: "vu", Nodes: 8,
		FrontendPolicy: vnet.SSHOnly, NodePolicy: vnet.OutboundOnly,
		InternalLatency: 100 * time.Microsecond, InternalBandwidth: 1.25e9,
	})
	return n, c, err
}

func probeMPI(ps probeSet, _ int64) error {
	n, c, err := vuCluster()
	if err != nil {
		return err
	}
	w, err := mpisim.NewWorld(n, c.NodeName)
	if err != nil {
		return err
	}
	defer w.Close()
	x := make([]float64, 1000) // the hydro step reduces per-particle slabs of this order
	reduce, err := probe(1, func() error {
		return w.Run(func(r *mpisim.Rank) error {
			_, err := r.AllreduceSum(x)
			return err
		})
	})
	if err != nil {
		return err
	}
	gather, err := probe(1, func() error {
		return w.Run(func(r *mpisim.Rank) error {
			_, err := r.AllgatherFloats(x[:125])
			return err
		})
	})
	if err != nil {
		return err
	}
	ps["mpisim.allreduce_us"] = reduce.ns / 1e3
	ps["mpisim.allgather_us"] = gather.ns / 1e3
	return nil
}

// probePhys calls the physics kernels directly, outside any worker, at the
// sizes the workloads run them: the coupled step's 100 stars and 1000 gas
// particles advanced by one bridge step, and one churn member's colony.
func probePhys(ps probeSet, seed int64) error {
	ctx := context.Background()
	w := exp.DefaultWorkload().Scaled(0.1)
	w.Seed = seed
	stars, gas, err := w.Build()
	if err != nil {
		return err
	}
	dev := &vtime.Device{Name: "probe", Kind: vtime.CPU, Gflops: 10, Cores: 8}

	sys := nbody.NewSystem(nbody.NewGPUKernel(dev), 0.01)
	sys.SetParticles(stars)
	t := 0.0
	p, err := probe(1, func() error {
		t += w.DT
		return sys.EvolveTo(ctx, t)
	})
	if err != nil {
		return err
	}
	ps["phys.nbody_evolve_us"] = p.ns / 1e3

	// The hydro worker of the jungle placement evolves over 8 MPI ranks.
	n, c, err := vuCluster()
	if err != nil {
		return err
	}
	world, err := mpisim.NewWorld(n, c.NodeName)
	if err != nil {
		return err
	}
	defer world.Close()
	g := sph.New()
	g.SelfGravity, g.EpsGrav = true, 0.01
	if err := g.SetParticles(gas); err != nil {
		return err
	}
	t = 0
	if p, err = probe(1, func() error {
		t += w.DT
		return g.EvolveToParallel(ctx, t, world, dev)
	}); err != nil {
		return err
	}
	ps["phys.sph_evolve_us"] = p.ns / 1e3

	// One p-kick's field work: gas onto stars and stars onto gas.
	oct := tree.NewOctgrav(dev)
	if p, err = probe(1, func() error {
		oct.FieldAt(ctx, gas.Mass, gas.Pos, stars.Pos, w.Eps)
		oct.FieldAt(ctx, stars.Mass, stars.Pos, gas.Pos, w.Eps)
		return nil
	}); err != nil {
		return err
	}
	ps["phys.tree_field_us"] = p.ns / 1e3

	masses, msunPerNBody := stellarMasses(stars)
	pop, err := stellar.NewPopulation(stellar.New(), masses)
	if err != nil {
		return err
	}
	sse, err := bridge.NewSSEAdapter(pop, 2.0, 1/msunPerNBody)
	if err != nil {
		return err
	}
	t = 0
	if p, err = probe(10, func() error {
		t += 4 * w.DT
		_, err := sse.EvolveTo(ctx, t)
		return err
	}); err != nil {
		return err
	}
	ps["phys.stellar_evolve_us"] = p.ns / 1e3

	grid, err := abm.NewGrid(churnColony)
	if err != nil {
		return err
	}
	copy(grid.U, abm.InitialU(churnColony, seed))
	if p, err = probe(1, func() error {
		for i := 0; i < churnSteps; i++ {
			grid.Step()
		}
		return nil
	}); err != nil {
		return err
	}
	ps["phys.abm_step_us"] = p.ns / 1e3
	return nil
}

func probeTrace(ps probeSet, _ int64) error {
	rec := trace.New()
	p, err := probe(100, func() error {
		rec.RecordCall("", "gravity", "kick", 2*time.Millisecond, time.Millisecond)
		return nil
	})
	if err != nil {
		return err
	}
	ps["trace.record_call_ns"] = p.ns
	return nil
}
