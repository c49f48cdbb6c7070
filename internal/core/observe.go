package core

import (
	"fmt"
	"time"

	"jungle/internal/trace"
)

// Channel-layer instrumentation for the observability plane. Every
// channel (conn, gang) carries an optional *chanObs: delivering a call
// records its virtual round-trip latency under its session/model/method
// key. Recording is pure observation — it never touches the virtual clock
// or the wire, so a session runs byte-identical with the plane on or off
// (the regression test in observe_identity_test.go holds the headline
// benchmarks to that).

// chanObs instruments one channel endpoint.
type chanObs struct {
	rec     *trace.Recorder
	session string // "" for standalone simulations
	model   string // kind, with /r<rank> suffix for gang members
	// floor is the configured vtime round-trip minimum for this channel
	// (2x routed path latency; 2x the mpi message cost in-process), which
	// RenderCalls prints beside the observed latencies.
	floor time.Duration
}

// deliver records a started call's latency, or its failure, and hands the
// outcome to its completer: every issued call, exactly once. Safe on a
// nil receiver (plane off).
func (o *chanObs) deliver(p pendingCall, resp response, arrival time.Duration, err error) {
	if o != nil {
		if err != nil || arrival < p.sentAt {
			// No response crossed the wire (transport failure, dead
			// channel): there is no honest latency to record.
			o.rec.RecordCallError(o.session, o.model, p.method)
		} else {
			// Structured failures still rode a real round trip; their
			// latency is as honest as a success's.
			o.rec.RecordCall(o.session, o.model, p.method, arrival-p.sentAt, o.floor)
		}
	}
	p.done.complete(resp, arrival, err)
}

// observer builds the channel observer for one endpoint. host is the
// worker's vnet host ("" for an in-process mpi worker); rank >= 0 labels a
// gang member, and a gang channel's merged completions take rank -1, like
// a solo worker's. Returns nil when the plane is off.
func (s *Simulation) observer(kind Kind, host string, rank int) *chanObs {
	rec := s.rec
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
	}
	dep := s.daemon.Deployment()
	if host == "" {
		o.floor = 2 * mpiMessageLatency
	} else if p, err := dep.Net.Route(dep.LocalHost(), host); err == nil {
		o.floor = 2 * p.Latency
	}
	return o
}

// workerHost resolves a started worker's vnet host for the observer's
// floor computation: its peer-plane address when it has one, the
// resource's frontend otherwise.
func (s *Simulation) workerHost(id int, resource string) string {
	if addr, ok := s.daemon.workerPeer(id); ok {
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
