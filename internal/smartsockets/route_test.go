package smartsockets

import (
	"runtime"
	"slices"
	"testing"
	"time"

	"jungle/internal/vnet"
)

// TestRouteTieBreaks pins Hub.route on hand-written link state: lowest
// cost, then fewest hops, then the lexicographically smaller path; links
// count in the direction their owner advertises them; nil when nothing
// connects.
func TestRouteTieBreaks(t *testing.T) {
	const ms = time.Millisecond
	ad := func(hub string, links ...link) advert { return advert{Hub: hub, Seq: 1, Links: links} }
	to := func(peer string, lat time.Duration) link { return link{Peer: peer, Latency: lat} }
	h := &Hub{host: "a", adverts: map[string]advert{}}
	for _, a := range []advert{
		// a-b-d and a-c-d cost the same: the tie goes to b.
		ad("a", to("b", ms), to("c", ms), to("e", 3*ms+2*hubProcessing), to("f", ms)),
		ad("b", to("a", ms), to("d", ms)),
		ad("c", to("a", ms), to("d", ms)),
		// a-e costs what a-b-d-e costs: the tie goes to the shorter path.
		ad("d", to("b", ms), to("c", ms), to("e", ms), to("f", 5*ms)),
		ad("e", to("d", ms)),
		// f is near over one link and far over three; g only points at a,
		// which is no way to reach g.
		ad("f"),
		ad("g", to("a", ms)),
	} {
		h.adverts[a.Hub] = a
	}
	for _, c := range []struct {
		dst  string
		want []string
	}{
		{"a", []string{"a"}},
		{"d", []string{"a", "b", "d"}},
		{"e", []string{"a", "e"}},
		{"f", []string{"a", "f"}},
		{"g", nil},
		{"nowhere", nil},
		{"", nil},
	} {
		if got := h.route(c.dst); !slices.Equal(got, c.want) {
			t.Errorf("route(%q) = %v, want %v", c.dst, got, c.want)
		}
	}
}

// TestRetentionHubForgetsClosedCircuits: a hub keeps state per open
// circuit and nothing per circuit ever opened. After 1 000 routed
// open-ping-close cycles and 1 000 reverse connects every per-connection
// table of both hubs and both factories is empty again and no goroutine
// was left behind. (While opens were flooded, each one left a dedup entry
// in every hub for good and a tombstone for 200 ms.)
func TestRetentionHubForgetsClosedCircuits(t *testing.T) {
	cycles := 1000
	if testing.Short() {
		cycles = 100
	}
	for _, c := range []struct {
		name string
		polA vnet.Policy
		want ConnType
	}{{"routed", vnet.OutboundOnly, Routed}, {"reverse", vnet.Open, Reverse}} {
		t.Run(c.name, func(t *testing.T) {
			tn := newTestNet(t, c.polA, vnet.OutboundOnly)
			fa := newFactory(t, tn.net, tn.clientA, 20000, tn.hubA)
			fb := newFactory(t, tn.net, tn.clntB, 20000, tn.hubB)
			l, err := fb.Listen(21000)
			if err != nil {
				t.Fatal(err)
			}
			cycle := func() {
				conn, err := fa.Connect(l.Addr(), 0)
				if err != nil {
					t.Fatal(err)
				}
				if conn.Type() != c.want {
					t.Fatalf("conn type %v, want %v", conn.Type(), c.want)
				}
				exchange(t, conn, l) // accepts the server end, which the client's close closes
				conn.Close()
			}
			cycle() // the goroutine count is taken after a first, lazily-initialising use
			start := runtime.NumGoroutine()
			for i := 0; i < cycles; i++ {
				cycle()
			}
			tables := func() int {
				n := 0
				for _, h := range tn.overlay.hubs {
					h.mu.Lock()
					n += len(h.circuits)
					h.mu.Unlock()
				}
				for _, f := range []*Factory{fa, fb} {
					f.mu.Lock()
					n += len(f.circuits) + len(f.pendingCirc) + len(f.pendingRev)
					f.mu.Unlock()
				}
				return n
			}
			// The last close handshake is still crossing the hubs when
			// Close returns.
			deadline := time.Now().Add(5 * time.Second)
			for tables() != 0 || runtime.NumGoroutine() > start {
				if time.Now().After(deadline) {
					t.Fatalf("after %d cycles: %d table entries left, %d goroutines (started with %d)",
						cycles, tables(), runtime.NumGoroutine(), start)
				}
				runtime.Gosched()
			}
		})
	}
}
