package smartsockets

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"time"

	"jungle/internal/vnet"
)

// Overlay manages a set of hubs started together, the way IbisDeploy starts
// one hub per resource before launching jobs. The zero value is an empty
// overlay ready for AddHub.
type Overlay struct {
	hubs []*Hub
	// wake holds a token while a change a hub signalled is unseen: what
	// settle waits on.
	wake chan struct{}
}

// ErrNotConverged reports hubs that never reached one link-state view.
var ErrNotConverged = errors.New("smartsockets: overlay did not converge")

// StartHubs creates a hub on each listed host and links them pairwise. Hub
// connection attempts are made in both directions so one-way links form
// whenever at least one direction is dialable.
func StartHubs(network *vnet.Network, hosts []string) (*Overlay, error) {
	o := &Overlay{}
	for _, h := range hosts {
		if _, err := o.AddHub(network, h); err != nil {
			o.Stop()
			return nil, err
		}
	}
	return o, nil
}

// settle waits until the overlay has converged, so callers observe — and
// route on — one hub graph. Hubs signal every change, no clock is polled;
// a view only counts if no hub signalled while it was taken.
func (o *Overlay) settle() error {
	watchdog := time.NewTimer(10 * time.Second) // watchdog: a hub that never finishes a handler or never gets an advertisement -> ErrNotConverged
	defer watchdog.Stop()
	for {
		if o.converged() && len(o.wake) == 0 {
			return nil
		}
		select {
		case <-o.wake:
		case <-watchdog.C:
			return ErrNotConverged
		}
	}
}

// converged is the predicate settle waits for: no hub has link state left
// to spread (busyAdd; a dial returns only once both sides registered the
// link) and every hub holds the current advertisement of every hub it can
// reach. The latter is checked by closure: a hub's own advertisement is
// current, so if everything it holds is current and names only hubs it
// also holds, it holds its whole component.
func (o *Overlay) converged() bool {
	current := make(map[string]uint64, len(o.hubs))
	for _, h := range o.hubs {
		h.mu.Lock()
		busy, seq := h.busy > 0, h.adverts[h.host].Seq
		h.mu.Unlock()
		if busy {
			return false
		}
		current[h.host] = seq
	}
	ok := true
	for _, h := range o.hubs {
		h.mu.Lock()
		for _, ad := range h.adverts {
			if seq, ours := current[ad.Hub]; ours && seq != ad.Seq {
				ok = false
			}
			for _, l := range ad.Links {
				if _, held := h.adverts[l.Peer]; !held {
					ok = false
				}
			}
		}
		h.mu.Unlock()
	}
	return ok
}

// AddHub starts a hub on host and links it with every existing hub (both
// directions are attempted so one-way links can form), then waits for the
// overlay to converge. IbisDeploy uses this to start hubs incrementally as
// resources are added.
func (o *Overlay) AddHub(network *vnet.Network, host string) (*Hub, error) {
	if h := o.Hub(host); h != nil {
		return h, nil
	}
	if o.wake == nil {
		o.wake = make(chan struct{}, 1)
	}
	hub, err := newHub(network, host, o.wake)
	if err != nil {
		return nil, err
	}
	for _, h := range o.hubs {
		hub.ConnectTo(h.Host()) // best effort; the peer may connect back
		h.ConnectTo(host)
	}
	o.hubs = append(o.hubs, hub)
	return hub, o.settle()
}

// Hub returns the hub running on the given host, or nil.
func (o *Overlay) Hub(host string) *Hub {
	for _, h := range o.hubs {
		if h.Host() == host {
			return h
		}
	}
	return nil
}

// Stop shuts all hubs down.
func (o *Overlay) Stop() {
	for _, h := range o.hubs {
		h.Stop()
	}
}

// OverlayEdge is a deduplicated hub-pair link for reporting.
type OverlayEdge struct {
	A, B string
	Type EdgeType
}

// Edges merges the per-hub edge views into one undirected edge list:
// if either side used SSH the edge is an SSH tunnel; if both sides hold a
// link it is direct; if only one side could initiate it is one-way — the
// arrows of Fig. 10.
func (o *Overlay) Edges() []OverlayEdge {
	type pair struct{ a, b string }
	views := make(map[pair][]EdgeType)
	for _, h := range o.hubs {
		for _, e := range h.Edges() {
			p := pair{e.Local, e.Peer}
			if p.a > p.b {
				p.a, p.b = p.b, p.a
			}
			views[p] = append(views[p], e.Type)
		}
	}
	out := make([]OverlayEdge, 0, len(views))
	for p, ts := range views {
		ssh, direct := false, true
		for _, x := range ts {
			if x == EdgeSSH {
				ssh = true
			}
			if x != EdgeDirect {
				direct = false
			}
		}
		t := EdgeOneWay
		switch {
		case ssh:
			t = EdgeSSH
		case direct && len(ts) >= 2:
			t = EdgeDirect
		}
		out = append(out, OverlayEdge{A: p.a, B: p.b, Type: t})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].A != out[j].A {
			return out[i].A < out[j].A
		}
		return out[i].B < out[j].B
	})
	return out
}

// Connected reports whether the overlay graph spans all hubs: whether the
// first hub has a route to every other.
func (o *Overlay) Connected() bool {
	for _, h := range o.hubs {
		if o.hubs[0].route(h.host) == nil {
			return false
		}
	}
	return true
}

// RenderMap renders the Fig. 10-equivalent overlay view: every hub and the
// deduplicated links with their types (direct, ssh-tunnel — the red lines —
// and one-way — the arrows).
func (o *Overlay) RenderMap() string {
	var b strings.Builder
	b.WriteString("SmartSockets overlay\n")
	b.WriteString("hubs:\n")
	hosts := make([]string, 0, len(o.hubs))
	for _, h := range o.hubs {
		hosts = append(hosts, h.Host())
	}
	sort.Strings(hosts)
	for _, h := range hosts {
		fmt.Fprintf(&b, "  %s\n", h)
	}
	b.WriteString("links:\n")
	for _, e := range o.Edges() {
		arrow := "<->"
		if e.Type == EdgeOneWay {
			arrow = "-->"
		}
		fmt.Fprintf(&b, "  %-26s %s %-26s [%s]\n", e.A, arrow, e.B, e.Type)
	}
	return b.String()
}
