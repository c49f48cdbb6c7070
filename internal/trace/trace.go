// Package trace implements the monitoring subsystem required by §4.3 of the
// paper ("it should be possible to do both performance and correctness
// monitoring of the system") and regenerates the data behind the IbisDeploy
// GUI views of Figures 10 and 11: the SmartSockets overlay map, the per-link
// traffic visualization (IPL vs MPI bytes). Fig. 11's per-node load bars
// are not reproduced: nothing in the simulator samples host load.
//
// Beyond the paper's views, the package is the system's observability
// plane, default-on and allocation-light. The channel layer records every
// RPC's virtual round-trip latency and every worker's in-flight queue
// depth into lock-striped fixed-bucket histograms (hist.go, calls.go;
// RenderCalls). The SmartSockets goodput probes and the bulk-transfer
// outcome counters roll up into a per-link health table with staleness
// marking, alongside the daemon store's checkpoint-size and
// restore-latency gauges and the deployment's capacity gauges (health.go;
// RenderHealth). Calibrate (calibrate.go) closes the loop: it compares
// the observed goodput and latency against the configured vnet/vtime
// constants and reports drift, keeping the virtual-time model honest as
// the system grows.
package trace

import (
	"sort"
	"sync"
	"time"
)

// Recorder collects traffic and goodput here and calls, sessions, gangs
// and health in the files beside this one. It satisfies
// vnet.TrafficRecorder. The zero value is not usable; call New.
type Recorder struct {
	mu      sync.Mutex
	traffic map[trafficKey]int
	goodput map[[2]string]GoodputSample
	// sessions holds per-session control-plane accounting (sessions.go);
	// created lazily so single-tenant recorders pay nothing.
	sessions map[string]*SessionStats
	// gangs holds elastic-gang skew telemetry (gangs.go); lazy like
	// sessions.
	gangs map[string]*GangStats
	// linkXfer counts bulk-transfer outcomes per directed link, store
	// holds per-model checkpoint/restore gauges and capacity the latest
	// per-resource occupancy (health.go); all lazy.
	linkXfer map[[2]string]*LinkTransfers
	store    map[string]*StoreStats
	capacity map[string][2]int

	// callShards stripe the channel-layer call/queue-depth histograms
	// (calls.go) so concurrent channels contend per shard, not on mu.
	callShards [callStripes]callShard
}

type trafficKey struct {
	From, To, Class string
}

// GoodputSample is the most recent measured goodput for a directed link,
// as reported by the SmartSockets prober.
type GoodputSample struct {
	BytesPerSec float64
	At          time.Duration // virtual time of the measurement
	Probes      int           // how many measurements have been folded in
}

// New returns an empty recorder.
func New() *Recorder {
	return &Recorder{
		traffic: make(map[trafficKey]int),
		goodput: make(map[[2]string]GoodputSample),
	}
}

// RecordGoodput implements vnet.GoodputRecorder: it stores the latest
// measured goodput for the directed from->to link.
func (r *Recorder) RecordGoodput(from, to string, bytesPerSec float64, at time.Duration) {
	r.mu.Lock()
	s := r.goodput[[2]string{from, to}]
	s.BytesPerSec, s.At = bytesPerSec, at
	s.Probes++
	r.goodput[[2]string{from, to}] = s
	r.mu.Unlock()
}

// Goodput returns the latest goodput sample for from->to; ok is false when
// the link has never been probed.
func (r *Recorder) Goodput(from, to string) (GoodputSample, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	s, ok := r.goodput[[2]string{from, to}]
	return s, ok
}

// RecordTraffic implements vnet.TrafficRecorder.
func (r *Recorder) RecordTraffic(from, to, class string, bytes int) {
	r.mu.Lock()
	r.traffic[trafficKey{from, to, class}] += bytes
	r.mu.Unlock()
}

// Bytes returns the traffic from->to for a class ("" sums all classes).
func (r *Recorder) Bytes(from, to, class string) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	if class != "" {
		return r.traffic[trafficKey{from, to, class}]
	}
	total := 0
	for k, v := range r.traffic {
		if k.From == from && k.To == to {
			total += v
		}
	}
	return total
}

// TotalByClass sums traffic over all host pairs per class.
func (r *Recorder) TotalByClass() map[string]int {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]int)
	for k, v := range r.traffic {
		out[k.Class] += v
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
	for k, v := range r.traffic {
		rows = append(rows, TrafficRow{From: k.From, To: k.To, Class: k.Class, Bytes: v})
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
