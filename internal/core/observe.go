package core

import (
	"fmt"
	"sync/atomic"
	"time"

	"jungle/internal/trace"
)

// Channel-layer instrumentation for the observability plane. Every
// channel (mpi, conn, gang) carries an optional *chanObs: issuing a call
// samples the channel's in-flight depth into the per-worker queue-depth
// histogram, and the completion records the call's virtual round-trip
// latency under its session/model/method key. Recording is pure
// observation — it never touches the virtual clock or the wire, so a
// session runs byte-identical with the plane on or off (the regression
// test in observe_identity_test.go holds the headline benchmarks to
// that).

// chanObs instruments one channel endpoint.
type chanObs struct {
	rec     *trace.Recorder
	session string // "" for standalone simulations
	model   string // kind, with /r<rank> suffix for gang members
	worker  string // queue-depth label: kind/<worker-id>@resource
	// floor is the configured vtime round-trip minimum for this channel
	// (2x routed path latency; 2x the mpi message cost in-process) — the
	// constant Calibrate compares observed latencies against.
	floor    time.Duration
	inflight atomic.Int64
}

// observe wraps a completion with latency/queue-depth recording. Safe on
// a nil receiver (plane off): the completion passes through untouched.
func (o *chanObs) observe(method string, sentAt time.Duration, done completion) completion {
	if o == nil {
		return done
	}
	depth := int(o.inflight.Add(1))
	o.rec.RecordQueueDepth(o.session, o.worker, depth)
	return func(resp response, arrival time.Duration, err error) {
		o.inflight.Add(-1)
		if err != nil || arrival < sentAt {
			// No response crossed the wire (transport failure, dead
			// channel): there is no honest latency to record.
			o.rec.RecordCallError(o.session, o.model, method)
		} else {
			// Structured failures still rode a real round trip; their
			// latency is as honest as a success's.
			o.rec.RecordCall(o.session, o.model, method, arrival-sentAt, o.floor)
		}
		done(resp, arrival, err)
	}
}

// observer builds the channel observer for one worker endpoint. host is
// the worker's vnet host ("" for an in-process mpi worker); worker is
// the daemon worker id (0 for mpi); rank >= 0 labels a gang member.
// Returns nil when the simulation has no monitor.
func (s *Simulation) observer(kind Kind, resource, host string, worker, rank int) *chanObs {
	rec := s.Monitor
	if rec == nil {
		return nil
	}
	model := string(kind)
	if rank >= 0 {
		model = fmt.Sprintf("%s/r%d", kind, rank)
	}
	o := &chanObs{
		rec:     rec,
		session: s.Session(),
		model:   model,
		worker:  fmt.Sprintf("%s/%d@%s", kind, worker, resource),
	}
	dep := s.daemon.Deployment()
	if host == "" {
		o.floor = 2 * mpiMessageLatency
	} else if p, err := dep.Net.Route(dep.LocalHost(), host); err == nil {
		o.floor = 2 * p.Latency
	}
	return o
}

// gangObserver builds the observer for a gang channel's merged
// completions: model label without a rank suffix, one queue-depth line
// for the whole gang. The floor is rank 0's (all ranks share the
// resource).
func (s *Simulation) gangObserver(kind Kind, resource, host string, worker int) *chanObs {
	o := s.observer(kind, resource, host, worker, -1)
	if o != nil {
		o.worker = fmt.Sprintf("%s/gang@%s", kind, resource)
	}
	return o
}

// workerHost resolves a started worker's vnet host for the observer's
// floor computation: its peer-plane address when it has one, the
// resource's frontend otherwise.
func (s *Simulation) workerHost(id int, resource string) string {
	if addr, ok := s.daemon.WorkerPeerAddr(id); ok {
		return addr.Host
	}
	if res, err := s.daemon.Deployment().Resource(resource); err == nil {
		return res.Frontend
	}
	return ""
}

// peerHost is the host label a proxy contributes to the link-health
// table: its peer-plane host when it has one, its resource otherwise
// (mpi workers run in-process on the client).
func (m *modelProxy) peerHost() string {
	if addr, ok := m.peerAddr(); ok {
		return addr.Host
	}
	return m.resource()
}
