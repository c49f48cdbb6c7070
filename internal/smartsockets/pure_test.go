package smartsockets_test

import (
	"fmt"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"jungle/internal/core"
	"jungle/internal/smartsockets"
	"jungle/internal/vnet"
)

// pureNet is an overlay with one client factory per hub, listening.
type pureNet struct {
	net     *vnet.Network
	overlay *smartsockets.Overlay
	clients []pureClient
}

type pureClient struct {
	host, hub string
	f         *smartsockets.Factory
	l         *smartsockets.Listener
}

func (pn *pureNet) add(t *testing.T, host, hub string) {
	t.Helper()
	f, err := smartsockets.NewFactory(pn.net, host, 40000, hub)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(f.Close)
	l, err := f.Listen(41000)
	if err != nil {
		t.Fatal(err)
	}
	pn.clients = append(pn.clients, pureClient{host, hub, f, l})
}

// testbedNet puts a client on the first node of every resource of a core
// testbed (the front-end where a resource has no nodes), registered with
// the resource's hub as a worker would be.
func testbedNet(t *testing.T, build func() (*core.Testbed, error)) *pureNet {
	t.Helper()
	tb, err := build()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tb.Close() })
	pn := &pureNet{net: tb.Net, overlay: tb.Deployment.Overlay()}
	for _, name := range tb.Deployment.Resources() {
		r, err := tb.Deployment.Resource(name)
		if err != nil {
			t.Fatal(err)
		}
		host := r.Frontend
		if len(r.Nodes) > 0 {
			host = r.Nodes[0]
		}
		pn.add(t, host, r.HubHost)
	}
	return pn
}

// diamondNet is the synthetic graph: firewalled end hubs a and d that can
// only link to the open hubs b and c, over four equal links — two hub
// paths of equal cost from a to d.
func diamondNet(t *testing.T) *pureNet {
	t.Helper()
	n := vnet.New()
	for _, h := range []struct {
		name, site string
		p          vnet.Policy
	}{{"a", "sa", vnet.OutboundOnly}, {"b", "sb", vnet.Open}, {"c", "sc", vnet.Open}, {"d", "sd", vnet.OutboundOnly},
		{"client-a", "sa", vnet.OutboundOnly}, {"client-d", "sd", vnet.OutboundOnly}} {
		if _, err := n.AddHost(h.name, h.site, h.p); err != nil {
			t.Fatal(err)
		}
	}
	for _, l := range [][2]string{{"a", "b"}, {"a", "c"}, {"b", "d"}, {"c", "d"}, {"a", "client-a"}, {"d", "client-d"}} {
		if err := n.AddLink(l[0], l[1], time.Millisecond, 1e9); err != nil {
			t.Fatal(err)
		}
	}
	ov, err := smartsockets.StartHubs(n, []string{"d", "c", "b", "a"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ov.Stop)
	pn := &pureNet{net: n, overlay: ov}
	pn.add(t, "client-a", "a")
	pn.add(t, "client-d", "d")
	return pn
}

// oracle is the brute-force reference for the overlay's route choice: every
// simple hub path from src to dst over the overlay's edges, priced from
// vnet's link data — lowest sum of latency and hub processing, then fewest
// hops, then the lexicographically smallest path.
func (pn *pureNet) oracle(t *testing.T, src, dst string) (best []string, cost time.Duration) {
	t.Helper()
	adj := map[string][]string{}
	for _, e := range pn.overlay.Edges() {
		adj[e.A] = append(adj[e.A], e.B)
		adj[e.B] = append(adj[e.B], e.A)
	}
	var walk func(path []string, cost time.Duration)
	walk = func(path []string, c time.Duration) {
		at := path[len(path)-1]
		if at == dst {
			better := best == nil
			if !better && c != cost {
				better = c < cost
			} else if !better && len(path) != len(best) {
				better = len(path) < len(best)
			} else if !better {
				better = slices.Compare(path, best) < 0
			}
			if better {
				best, cost = slices.Clone(path), c
			}
			return
		}
		for _, next := range adj[at] {
			if slices.Contains(path, next) {
				continue
			}
			p, err := pn.net.Route(at, next)
			if err != nil {
				t.Fatal(err)
			}
			walk(append(path, next), c+p.Latency+smartsockets.HubProcessing)
		}
	}
	walk([]string{src}, 0)
	return best, cost
}

// outcome is what one connect showed: how and over which hubs it connected,
// and when each end saw the connection established.
type outcome struct {
	typ            smartsockets.ConnType
	route          string
	dialed, accept time.Duration
}

// TestRouteChoiceIsAPureFunction: which hub path a routed circuit or a
// reverse request takes, and when the connection is established in virtual
// time, is a function of the hub graph and the connects made so far — never
// of the host's scheduler. On the lab and SC11 overlays and on a graph with
// two hub paths of equal cost, 200 connects per (source, destination) all
// take the route a brute-force search over vnet's link data
// picks, and a second, fresh instance of the same graph driven under a
// different GOMAXPROCS at every connect (1, 2 and 8 in turn, beside a
// goroutine that keeps the scheduler busy) reproduces every establishment
// time to the nanosecond. While opens were flooded and the destination hub
// took the best copy to arrive within 2 ms of wall time, a loaded host
// chose a different route.
func TestRouteChoiceIsAPureFunction(t *testing.T) {
	connects := 200
	if testing.Short() {
		connects = 20
	}
	var stop atomic.Bool
	spun := make(chan struct{})
	go func() {
		defer close(spun)
		for !stop.Load() {
			runtime.Gosched()
		}
	}()
	defer func() {
		stop.Store(true)
		<-spun
	}()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))

	for _, g := range []struct {
		name  string
		build func(*testing.T) *pureNet
	}{
		{"lab", func(t *testing.T) *pureNet { return testbedNet(t, core.NewLabTestbed) }},
		{"sc11", func(t *testing.T) *pureNet { return testbedNet(t, core.NewSC11Testbed) }},
		{"diamond", diamondNet},
	} {
		t.Run(g.name, func(t *testing.T) {
			first, second := g.build(t).run(t, connects, 0), g.build(t).run(t, connects, 1)
			routed, reverse := 0, 0
			for i, got := range first {
				if got != second[i] {
					t.Fatalf("connect %d: %+v on one instance, %+v on the other", i, got, second[i])
				}
				switch got.typ {
				case smartsockets.Routed:
					routed++
				case smartsockets.Reverse:
					reverse++
				}
			}
			if routed == 0 || (reverse == 0 && g.name == "lab") { // only the lab has an open host to dial back to
				t.Fatalf("%d routed and %d reverse connects: the graph exercises nothing", routed, reverse)
			}
		})
	}
	if got, _ := diamondNet(t).oracle(t, "a", "d"); !slices.Equal(got, []string{"a", "b", "d"}) {
		t.Fatalf("diamond oracle route %v: the two equal paths must tie towards b", got)
	}
}

// run connects every client to every other, the given number of times
// each, holding each connect to the oracle, and returns what every
// connect showed. The connect with sequence number i runs under GOMAXPROCS
// procs[(i+shift)%3].
func (pn *pureNet) run(t *testing.T, connects, shift int) []outcome {
	t.Helper()
	const sentAt = time.Second
	var all []outcome
	for _, src := range pn.clients {
		for _, dst := range pn.clients {
			if src.host == dst.host {
				continue
			}
			want, cost := pn.oracle(t, src.hub, dst.hub)
			for i := 0; i < connects; i++ {
				runtime.GOMAXPROCS([]int{1, 2, 8}[(len(all)+shift)%3])
				conn, err := src.f.Connect(dst.l.Addr(), sentAt)
				if err != nil {
					t.Fatalf("%s -> %s: %v", src.host, dst.host, err)
				}
				srv, err := dst.l.Accept()
				if err != nil {
					t.Fatal(err)
				}
				got := outcome{conn.Type(), fmt.Sprint(conn.Route()), conn.EstablishedAt(), srv.EstablishedAt()}
				conn.Close()
				srv.Close()
				switch {
				case got.typ == smartsockets.Routed && (got.route != fmt.Sprint(want) || got.dialed != sentAt || got.accept < sentAt+cost):
					t.Fatalf("%s -> %s connect %d: %+v, oracle route %v costing %v", src.host, dst.host, i, got, want, cost)
				case got.typ == smartsockets.Reverse && got.dialed < sentAt+cost:
					t.Fatalf("%s -> %s reverse connect %d established %v, the request alone takes %v", src.host, dst.host, i, got.dialed, sentAt+cost)
				}
				all = append(all, got)
			}
		}
	}
	return all
}
