package smartsockets_test

import (
	"fmt"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"jungle/internal/core"
	"jungle/internal/smartsockets"
)

// TestGossipFloodsWhatChanged: hubs forward the advertisements that were
// news to them, never back to where they came from, and only a hello
// carries a whole database — and what that converges to is what pushing
// every database to every neighbour after every change converged to. On the
// lab, SC11 and DSL overlays every hub holds the same table, each hub's
// line in it is that hub's own current advertisement, the edges are the
// ones full flooding built (pinned below from the parent commit) and every
// hub routes to every other as the brute-force oracle does. A hub whose
// host crashes is withdrawn from every surviving hub's advertisement. One
// lab build decodes at most 450 advertisements: 290–350 as counted here,
// 700–900 while every change pushed every database.
func TestGossipFloodsWhatChanged(t *testing.T) {
	var frames, adverts atomic.Int64
	smartsockets.WatchAdverts(func(n int) {
		frames.Add(1)
		adverts.Add(int64(n))
	})
	defer smartsockets.WatchAdverts(nil)

	for _, g := range []struct {
		name  string
		build func() (*core.Testbed, error)
		edges string
		crash string // a leaf hub: the others stay one component without it
	}{
		{"lab", core.NewLabTestbed,
			"[{das4-tud.fe das4-uva.fe ssh-tunnel} {das4-tud.fe das4-vu.fe ssh-tunnel} {das4-tud.fe desktop ssh-tunnel} {das4-tud.fe lgm ssh-tunnel} " +
				"{das4-uva.fe das4-vu.fe ssh-tunnel} {das4-uva.fe desktop ssh-tunnel} {das4-uva.fe lgm ssh-tunnel} {das4-vu.fe desktop direct} " +
				"{das4-vu.fe lgm ssh-tunnel} {desktop lgm ssh-tunnel}]", "lgm"},
		{"sc11", core.NewSC11Testbed,
			"[{das4-tud.fe das4-uva.fe ssh-tunnel} {das4-tud.fe das4-vu.fe ssh-tunnel} {das4-tud.fe laptop ssh-tunnel} {das4-tud.fe lgm ssh-tunnel} " +
				"{das4-uva.fe das4-vu.fe ssh-tunnel} {das4-uva.fe laptop ssh-tunnel} {das4-uva.fe lgm ssh-tunnel} {das4-vu.fe laptop ssh-tunnel} " +
				"{das4-vu.fe lgm ssh-tunnel} {laptop lgm ssh-tunnel}]", "lgm"},
		{"dsl", core.NewDSLTestbed, "[{home site-a direct} {home site-b direct} {site-a site-b direct}]", "site-b"},
	} {
		t.Run(g.name, func(t *testing.T) {
			before := adverts.Load()
			pn := testbedNet(t, g.build)
			built := adverts.Load() - before
			var hosts []string
			for _, e := range pn.overlay.Edges() {
				hosts = append(hosts, e.A, e.B)
			}
			slices.Sort(hosts)
			hosts = slices.Compact(hosts)
			var hubs []*smartsockets.Hub
			for _, host := range hosts {
				hubs = append(hubs, pn.overlay.Hub(host))
			}
			want := hubs[0].Database()
			for _, h := range hubs {
				db := h.Database()
				if len(db) != len(hosts) {
					t.Errorf("hub %s holds %d advertisements, the overlay has %d hubs", h.Host(), len(db), len(hosts))
				}
				if !slices.Equal(db, want) {
					t.Errorf("hub %s holds\n%s\nhub %s holds\n%s", h.Host(), strings.Join(db, "\n"), hubs[0].Host(), strings.Join(want, "\n"))
				}
				for _, dst := range hosts {
					oracle, _ := pn.oracle(t, h.Host(), dst)
					if got := h.RouteTo(dst); !slices.Equal(got, oracle) {
						t.Errorf("route %s -> %s: %v, oracle %v", h.Host(), dst, got, oracle)
					}
				}
			}
			if got := fmt.Sprint(pn.overlay.Edges()); got != g.edges {
				t.Errorf("overlay edges\n%s\nthe parent commit's\n%s", got, g.edges)
			}
			t.Logf("%d hubs, build decoded %d adverts", len(hubs), built)
			if g.name == "lab" && built > 450 {
				t.Errorf("one lab build decoded %d advertisements, bound 450", built)
			}

			// Withdrawal: the crashed hub's neighbours lose their link to it,
			// re-issue their advertisements, and every survivor hears of it.
			if err := pn.net.CrashHost(g.crash); err != nil {
				t.Fatal(err)
			}
			deadline := time.Now().Add(10 * time.Second)
			for {
				stale := ""
				for _, h := range hubs {
					if h.Host() == g.crash {
						continue
					}
					for _, line := range h.Database() {
						if !strings.HasPrefix(line, g.crash+" ") && strings.Contains(line, "{"+g.crash+" ") {
							stale = fmt.Sprintf("hub %s still holds %q", h.Host(), line)
						}
					}
					if h.RouteTo(g.crash) != nil {
						stale = fmt.Sprintf("hub %s still routes to %s", h.Host(), g.crash)
					}
				}
				if stale == "" {
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("10 s after %s crashed: %s", g.crash, stale)
				}
				time.Sleep(time.Millisecond)
			}
		})
	}
	t.Logf("%d hello/gossip frames, %d adverts in all", frames.Load(), adverts.Load())
}
