// Package trace implements the monitoring subsystem required by §4.3 of the
// paper ("it should be possible to do both performance and correctness
// monitoring of the system") and regenerates the data behind the IbisDeploy
// GUI views of Figures 10 and 11: the SmartSockets overlay map, the per-link
// traffic visualization (IPL vs MPI bytes). Fig. 11's per-node load bars
// are not reproduced: nothing in the simulator samples host load.
//
// Beyond the paper's views, the package is the system's observability
// plane, default-on and allocation-light. The channel layer records every
// RPC's virtual round-trip latency, with the channel's configured floor,
// into lock-striped fixed-bucket histograms (hist.go, calls.go;
// RenderCalls). The bulk-transfer outcome counters roll up into a per-link
// health table, alongside the daemon store's checkpoint-size and
// restore-latency gauges (health.go; RenderHealth).
package trace

import (
	"sort"
	"sync"
	"sync/atomic"
)

// Recorder collects traffic here and calls, sessions, gangs and health in
// the files beside this one. It satisfies vnet.TrafficRecorder. The zero
// value is not usable; call New.
type Recorder struct {
	mu sync.Mutex
	// traffic holds one counter per (from, to, class), handed out once
	// to the network, whose senders add to it without taking mu.
	traffic map[trafficKey]*atomic.Int64
	spare   []atomic.Int64 // made in blocks: a new key costs no allocation of its own
	// sessions holds per-session control-plane accounting (sessions.go);
	// created lazily so single-tenant recorders pay nothing.
	sessions map[string]*SessionStats
	// folded is the window of ids whose rows CloseSession folded into the
	// ClosedSession row; their later events land there.
	folded Retired
	// gangs holds elastic-gang skew telemetry (gangs.go); lazy like
	// sessions.
	gangs map[string]*GangStats
	// linkXfer counts bulk-transfer outcomes per directed link, store
	// holds per-model checkpoint/restore gauges (health.go); both lazy.
	linkXfer map[[2]string]*LinkTransfers
	store    map[string]*StoreStats

	// callShards stripe the channel-layer call histograms
	// (calls.go) so concurrent channels contend per shard, not on mu.
	callShards [callStripes]callShard
}

type trafficKey struct {
	From, To, Class string
}

// New returns an empty recorder.
func New() *Recorder {
	return &Recorder{
		traffic: make(map[trafficKey]*atomic.Int64),
	}
}

// TrafficCounter implements vnet.TrafficRecorder: the counter of the
// bytes sent from -> to under class, made on its first request. A key
// whose counter reads 0 is not in the views below.
func (r *Recorder) TrafficCounter(from, to, class string) *atomic.Int64 {
	k := trafficKey{from, to, class}
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.traffic[k]
	if c == nil {
		if len(r.spare) == 0 {
			r.spare = make([]atomic.Int64, 64)
		}
		c, r.spare = &r.spare[0], r.spare[1:]
		r.traffic[k] = c
	}
	return c
}

// TotalByClass sums traffic over all host pairs per class.
func (r *Recorder) TotalByClass() map[string]int {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]int)
	for k, c := range r.traffic {
		if v := c.Load(); v != 0 {
			out[k.Class] += int(v)
		}
	}
	return out
}

// TrafficRow is one line of the Fig. 11-style traffic table.
type TrafficRow struct {
	From, To, Class string
	Bytes           int
}

// TrafficTable returns all traffic rows sorted by bytes descending, then
// lexicographically for determinism.
func (r *Recorder) TrafficTable() []TrafficRow {
	r.mu.Lock()
	defer r.mu.Unlock()
	rows := make([]TrafficRow, 0, len(r.traffic))
	for k, c := range r.traffic {
		if v := c.Load(); v != 0 {
			rows = append(rows, TrafficRow{From: k.From, To: k.To, Class: k.Class, Bytes: int(v)})
		}
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].Bytes != rows[j].Bytes {
			return rows[i].Bytes > rows[j].Bytes
		}
		a, b := rows[i], rows[j]
		if a.From != b.From {
			return a.From < b.From
		}
		if a.To != b.To {
			return a.To < b.To
		}
		return a.Class < b.Class
	})
	return rows
}
