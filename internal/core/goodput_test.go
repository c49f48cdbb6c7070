package core

import (
	"strings"
	"testing"
	"time"

	"jungle/internal/smartsockets"
)

// probeFactory attaches a fresh SmartSockets factory to a testbed host,
// registered through the hub the deployment already runs on that host.
func probeFactory(t *testing.T, tb *Testbed, host string, base int) *smartsockets.Factory {
	t.Helper()
	f, err := smartsockets.NewFactory(tb.Net, host, base, host)
	if err != nil {
		t.Fatalf("factory on %s: %v", host, err)
	}
	t.Cleanup(f.Close)
	return f
}

// probeResponder starts a goodput responder on the factory.
func probeResponder(t *testing.T, f *smartsockets.Factory, port int) smartsockets.Address {
	t.Helper()
	l, err := f.Listen(port)
	if err != nil {
		t.Fatal(err)
	}
	go f.ServeGoodput(l)
	return l.Addr()
}

// assertGoodputEdges probes every listed directed edge and requires the
// measurement within 10% of the configured link bandwidth, and the sample
// recorded in the testbed's link-health view.
func assertGoodputEdges(t *testing.T, tb *Testbed, edges []struct {
	from, to string
	want     float64
}, base int) {
	t.Helper()
	factories := map[string]*smartsockets.Factory{}
	responders := map[string]smartsockets.Address{}
	next := base
	for _, e := range edges {
		for _, host := range []string{e.from, e.to} {
			if factories[host] == nil {
				f := probeFactory(t, tb, host, next)
				factories[host] = f
				responders[host] = probeResponder(t, f, next+50)
				next += 100
			}
		}
	}
	at := time.Second
	for _, e := range edges {
		bw, doneAt, err := factories[e.from].Goodput(responders[e.to], at)
		if err != nil {
			t.Fatalf("goodput %s -> %s: %v", e.from, e.to, err)
		}
		if bw < e.want*0.9 || bw > e.want*1.1 {
			t.Errorf("goodput %s -> %s = %.3g B/s, want within 10%% of %.3g", e.from, e.to, bw, e.want)
		}
		if sample, ok := tb.Recorder.Goodput(e.from, e.to); !ok || sample.BytesPerSec != bw {
			t.Errorf("link-health sample for %s -> %s = (%+v, %v), want recorded %.3g", e.from, e.to, sample, ok, bw)
		}
		at = doneAt + time.Second
	}
	if !strings.Contains(tb.Recorder.RenderHealth(at), "GOODPUT") {
		t.Error("RenderHealth output missing the goodput header")
	}
}

// TestGoodputProbeAccuracyDSL: on the DSL testbed the probe must recover
// the configured bandwidth of both the slow home uplinks and the fast
// inter-site lightpath, in both directions (every host is Open, so these
// ride direct virtual connections).
func TestGoodputProbeAccuracyDSL(t *testing.T) {
	tb, _ := dslSim(t)
	assertGoodputEdges(t, tb, []struct {
		from, to string
		want     float64
	}{
		{"home", "site-a", 1.25e6},
		{"site-a", "home", 1.25e6},
		{"home", "site-b", 1.25e6},
		{"site-b", "home", 1.25e6},
		{"site-a", "site-b", tenG},
		{"site-b", "site-a", tenG},
	}, 40000)
	// Probe traffic rides ordinary virtual connections under its own class
	// (direct connections here, so the class survives end to end).
	if tb.Recorder.TotalByClass()["probe"] == 0 {
		t.Error("probe traffic not recorded under class \"probe\"")
	}
}

// TestGoodputProbeAccuracySC11 covers the asymmetric edge types of the
// SC11 topology: the NAT'd laptop (outbound-only, so probing it crosses a
// reverse/routed setup), SSH-only cluster frontends, and the SSH-only LGM
// host. Every measurement must still land within 10% of the configured
// link, in both directions.
func TestGoodputProbeAccuracySC11(t *testing.T) {
	tb, err := NewSC11Testbed()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(tb.Close)
	assertGoodputEdges(t, tb, []struct {
		from, to string
		want     float64
	}{
		{"laptop", "das4-vu.fe", gbE},
		{"das4-vu.fe", "laptop", gbE}, // one-way: the laptop accepts nothing inbound
		{"das4-vu.fe", "das4-uva.fe", tenG},
		{"das4-uva.fe", "das4-vu.fe", tenG},
		{"das4-vu.fe", "lgm", gbE},
		{"lgm", "das4-vu.fe", gbE},
	}, 40000)
}
