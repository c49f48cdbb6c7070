package smartsockets

import (
	"sync"
	"testing"
	"time"

	"jungle/internal/vnet"
)

// goodputSink records goodput reports for assertions.
type goodputSink struct {
	mu      sync.Mutex
	samples map[[2]string]float64
}

func (s *goodputSink) RecordTraffic(from, to, class string, bytes int) {}

func (s *goodputSink) RecordGoodput(from, to string, bw float64, at time.Duration) {
	s.mu.Lock()
	if s.samples == nil {
		s.samples = make(map[[2]string]float64)
	}
	s.samples[[2]string{from, to}] = bw
	s.mu.Unlock()
}

// TestProbeGoodputOneWayLink: the responder is firewalled (outbound-only in
// another site), so the factory falls back to reverse connection setup —
// the dial-back still crosses the same physical link, and the measured
// goodput must match that link's configured bandwidth.
func TestProbeGoodputOneWayLink(t *testing.T) {
	n := vnet.New()
	sink := &goodputSink{}
	n.SetRecorder(sink)
	hosts := []struct {
		name, site string
		pol        vnet.Policy
	}{
		{"prober", "sa", vnet.Open},
		{"resp", "sb", vnet.OutboundOnly},
		{"hub", "sa", vnet.Open},
	}
	for _, h := range hosts {
		if _, err := n.AddHost(h.name, h.site, h.pol); err != nil {
			t.Fatal(err)
		}
	}
	const linkBW = 5e7
	// The prober<->responder link is the lowest-latency path; hub links are
	// slower so the dial-back is never routed around it.
	if err := n.AddLink("prober", "resp", time.Millisecond, linkBW); err != nil {
		t.Fatal(err)
	}
	for _, h := range []string{"prober", "resp"} {
		if err := n.AddLink(h, "hub", 5*time.Millisecond, 1e9); err != nil {
			t.Fatal(err)
		}
	}
	ov, err := StartHubs(n, []string{"hub"})
	if err != nil {
		t.Fatal(err)
	}
	defer ov.Stop()

	fp := newFactory(t, n, "prober", 20000, "hub")
	fr := newFactory(t, n, "resp", 20000, "hub")
	l, err := fr.Listen(21000)
	if err != nil {
		t.Fatal(err)
	}
	go fr.ServeGoodput(l)

	bw, doneAt, err := fp.Goodput(l.Addr(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if doneAt <= time.Second {
		t.Fatalf("doneAt = %v, want > sentAt: probing must cost virtual time", doneAt)
	}
	if bw < linkBW*0.9 || bw > linkBW*1.1 {
		t.Fatalf("measured goodput %.3g, want within 10%% of %.3g", bw, linkBW)
	}

	// The measurement must be reported for the link-health view.
	sink.mu.Lock()
	got := sink.samples[[2]string{"prober", "resp"}]
	sink.mu.Unlock()
	if got != bw {
		t.Fatalf("recorded goodput %.3g, want %.3g", got, bw)
	}
}
