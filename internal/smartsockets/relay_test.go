package smartsockets

import (
	"bytes"
	"maps"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"jungle/internal/vnet"
	"jungle/internal/wire"
)

// middleHub starts hub hb between two hub neighbours the test plays, ha
// and hc, and returns the connection each of them said hello on: a frame
// one of them sends hb past the first hop of its route comes out at the
// other.
func middleHub(t *testing.T) (hb *Hub, ha, hc *vnet.Conn) {
	t.Helper()
	n := vnet.New()
	for _, h := range []string{"ha", "hb", "hc"} {
		if _, err := n.AddHost(h, "site-"+h, vnet.Open); err != nil {
			t.Fatal(err)
		}
	}
	for _, peer := range []string{"ha", "hc"} {
		if err := n.AddLink(peer, "hb", time.Millisecond, 1.25e9); err != nil {
			t.Fatal(err)
		}
	}
	hb, err := newHub(n, "hb", nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(hb.Stop)
	hello := func(host string) *vnet.Conn {
		c, err := n.Dial(host, "hb", HubPort)
		if err != nil {
			t.Fatal(err)
		}
		mustSend(t, c, &frame{Kind: kHello, Hub: host})
		mustRecv(t, c, kGossip) // hb answers once it holds the link
		return c
	}
	return hb, hello("ha"), hello("hc")
}

// recvRelayed returns the next message on c that is not gossip (hb floods
// its advertisement when its second link comes up).
func recvRelayed(t *testing.T, c *vnet.Conn) vnet.Message {
	t.Helper()
	for {
		m, err := c.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if m.Data[0] != kGossip {
			return m
		}
	}
}

// A connection's set-up between client ca of hub ha and client cc of hub
// hc, as hb sees it: the route is ha, hb, hc. The reverse request's reply
// port is negative, as every ephemeral one is, its ReqID takes the 9-byte
// form, and the circuit key is longer than 64 bytes.
var (
	lineRoute = []string{"ha", "hb", "hc"}
	lineSrc   = Address{Host: "ca", Port: 20000, Hub: "ha"}
	lineDst   = Address{Host: "cc", Port: 21000, Hub: "hc"}
	lineKey   = circuitKey(strings.Repeat("ca.node", 10), 20000, 1<<40)
)

// relayStep is one frame a played hub sends hb and the Hop cursor that
// hb's relay of it carries.
type relayStep struct {
	name    string
	fromA   bool // sent by ha (to hc), else by hc (to ha)
	f       frame
	nextHop int
}

func lineSetUp() []relayStep {
	return []relayStep{
		{"reverse request", true, frame{Kind: kReverseReq, Src: lineSrc, Dst: lineDst, Route: lineRoute, Hop: 1,
			ReqID: 1<<56 + 3, ReplyPort: vnet.EphemeralFirst - 7}, 2},
		{"reverse nak", false, frame{Kind: kCircuitNak, Src: lineSrc, Dst: lineDst, Route: lineRoute, Hop: 2,
			ReqID: 1<<56 + 3, Reason: nakNoListener}, 1},
		{"open", true, frame{Kind: kCircuitOpen, Src: lineSrc, Dst: lineDst, Circuit: lineKey, Route: lineRoute, Hop: 1}, 2},
		{"ack", false, frame{Kind: kCircuitAck, Src: lineSrc, Dst: lineDst, Circuit: lineKey, Route: lineRoute, Hop: 2}, 1},
		{"close from ca", true, frame{Kind: kCircuitClose, Circuit: lineKey}, 0},
		{"close from cc", false, frame{Kind: kCircuitClose, Circuit: lineKey}, 0},
	}
}

// TestRelayForwardsWhatReEncodingBuilt: a hub past the first hop forwards
// the bytes it received, its Hop cursor rewritten in place, and they are
// the bytes re-encoding built: the received frame decoded, its Hop moved
// one hub on (a close's left as it is), encoded by wire.Marshal. Each
// arrives at the arrival re-encoding gave it, and the closes leave hb's
// circuit table empty.
func TestRelayForwardsWhatReEncodingBuilt(t *testing.T) {
	hb, ha, hc := middleHub(t)
	for i, s := range lineSetUp() {
		from, to := ha, hc
		if !s.fromA {
			from, to = hc, ha
		}
		sent := wire.Marshal(&s.f)
		var built frame
		if err := wire.Unmarshal(sent, &built); err != nil {
			t.Fatal(err)
		}
		built.Hop = s.nextHop
		want := wire.Marshal(&built)
		at := time.Duration(i) * time.Second
		if _, err := from.Send(slices.Clone(sent), at); err != nil {
			t.Fatal(err)
		}
		got := recvRelayed(t, to)
		if !bytes.Equal(got.Data, want) {
			t.Fatalf("%s: relayed\n%x\nre-encoding built\n%x", s.name, got.Data, want)
		}
		hop := from.Path().TransferTime(len(sent))
		if wantAt := at + hop + hubProcessing + hop; got.Arrival != wantAt {
			t.Errorf("%s: arrived at %v, want %v", s.name, got.Arrival, wantAt)
		}
	}
	hb.mu.Lock()
	defer hb.mu.Unlock()
	if len(hb.circuits) != 0 {
		t.Errorf("circuit table after both closes: %v", hb.circuits)
	}
}

// TestHubRelayAllocGate: relaying an open past the first hop, its ack, a
// reverse request's nak and both closes allocates nothing per frame once
// the queues and the readers' kept frames have seen one cycle: the hub
// forwards the bytes it received and stores its circuit by value.
func TestHubRelayAllocGate(t *testing.T) {
	_, ha, hc := middleHub(t)
	var steps []relayStep
	for _, s := range lineSetUp() {
		if s.f.Kind != kReverseReq {
			steps = append(steps, s)
		}
	}
	sent := make([][]byte, len(steps))
	bufs := make([][]byte, len(steps))
	for i := range steps {
		sent[i] = wire.Marshal(&steps[i].f)
		bufs[i] = make([]byte, len(sent[i]))
	}
	cycle := func() {
		for i, s := range steps {
			from, to := ha, hc
			if !s.fromA {
				from, to = hc, ha
			}
			copy(bufs[i], sent[i]) // the relay rewrote the last copy's cursor
			if _, err := from.Send(bufs[i], 0); err != nil {
				t.Fatal(err)
			}
			recvRelayed(t, to)
		}
	}
	cycle()
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Errorf("relaying %d frames: %v allocations per cycle, want 0", len(steps), allocs)
	}
}

// TestOwnershipRelayedBytes: what a hub forwards is the next neighbour's,
// which may write over it at once; the relaying hub keeps nothing that
// aliases it. Each frame's receiver overwrites what it received, and the
// frame every hb reader keeps still holds what it decoded, the circuit the
// ack installed keeps its key and neighbours, and the closes still find
// it.
func TestOwnershipRelayedBytes(t *testing.T) {
	var mu sync.Mutex
	decoded := map[*frame]frame{} // a reader's frame -> a copy of what it decoded last
	testDecoded = func(f *frame) {
		c := *f
		c.Route = slices.Clone(f.Route)
		mu.Lock()
		decoded[f] = c
		mu.Unlock()
	}
	t.Cleanup(func() { testDecoded = nil }) // after hb stopped: cleanups run last first
	hb, ha, hc := middleHub(t)
	for _, s := range lineSetUp() {
		from, to := ha, hc
		if !s.fromA {
			from, to = hc, ha
		}
		mustSend(t, from, &s.f)
		got := recvRelayed(t, to)
		for i := range got.Data {
			got.Data[i] = 0xA5
		}
		// hb's readers wrote their frames before forwarding what the test
		// just received, and are waiting for the next message.
		mu.Lock()
		for kept, want := range decoded {
			if !reflect.DeepEqual(*kept, want) {
				t.Fatalf("%s: a reader's kept frame reads\n%+v\nafter its receiver wrote over the relayed bytes; it decoded\n%+v", s.name, *kept, want)
			}
		}
		mu.Unlock()
		if s.f.Kind == kCircuitAck {
			hb.mu.Lock()
			c, ok := hb.circuits[lineKey]
			keys := slices.Collect(maps.Keys(hb.circuits))
			hb.mu.Unlock()
			if want := (circuit{aID: "h:ha", bID: "h:hc"}); !ok || c != want || !slices.Equal(keys, []string{lineKey}) {
				t.Fatalf("circuit table after the ack's receiver wrote over it: %v %+v, want the one key %q: %+v", keys, c, lineKey, want)
			}
		}
	}
}
