package smartsockets

import (
	"fmt"
	"sort"
)

// HubProcessing lets the external tests' route oracle price a hop.
const HubProcessing = hubProcessing

// Database renders the hub's link-state table, one sorted line per
// advertisement held.
func (h *Hub) Database() []string {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make([]string, 0, len(h.adverts))
	for _, ad := range h.adverts {
		out = append(out, fmt.Sprintf("%s seq=%d links=%v", ad.Hub, ad.Seq, ad.Links))
	}
	sort.Strings(out)
	return out
}

// RouteTo is the hub's route choice to hub dst.
func (h *Hub) RouteTo(dst string) []string { return h.route(dst) }

// Route returns the hub hosts relaying a routed connection, in order from
// the dialer's hub to the acceptor's. Direct and reverse connections
// return nil: no hub touches their payload bytes.
func (c *VirtualConn) Route() []string { return c.route }

// WatchAdverts installs f to be told how many advertisements each hello or
// gossip frame decoded from here on carried; nil removes it. Install before
// the hubs to watch start, remove after they stopped.
func WatchAdverts(f func(adverts int)) {
	if f == nil {
		testDecoded = nil
		return
	}
	testDecoded = func(fr *frame) {
		if fr.Kind == kHello || fr.Kind == kGossip {
			f(len(fr.Adverts))
		}
	}
}
