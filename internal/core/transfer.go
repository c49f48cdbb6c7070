package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"jungle/internal/amuse/data"
	"jungle/internal/core/kernel"
	"jungle/internal/phys/bridge"
	"jungle/internal/trace"
)

// Third-party state transfer: the coupler orchestrates ("send your columns
// to peer A" / "expect stream T from peer B"), the column bytes flow
// worker-to-worker over the SmartSockets overlay. Where the coupled step
// used to Pull worker->coupler and Push coupler->worker — two WAN
// crossings with the user's uplink as the bottleneck — the direct plane
// costs one inter-site leg plus small control RPCs. When the peer path is
// unreachable (local workers, sockets channel, a dead stream) the
// transfer falls back to exactly that Pull/Push hairpin, so TransferState
// is always safe to call. Only a direct-path failure classified under
// ErrTransport/ErrWorkerDied falls back, and each fallback is counted in
// TransferStats and on the link's row of the link-health table.

// storeRefs allocates NewStoreRef's ids.
var storeRefs atomic.Uint64

// NewStoreRef allocates a fresh process-unique id for callers (the
// ensemble layer) that stage their own blobs in a daemon's checkpoint
// store. The top bit keeps it clear of the ids daemons allocate themselves
// (Daemon.ids); it never crosses the wire.
func NewStoreRef() uint64 { return 1<<63 | storeRefs.Add(1) }

// StateEndpoint is any coupler-side model handle whose worker holds
// particle state — Gravity, Hydro, FieldModel, StellarModel and the
// generic Model all satisfy it.
type StateEndpoint interface {
	stateProxy() *modelProxy
}

func (m *modelProxy) stateProxy() *modelProxy { return m }

// peerAddr resolves the worker's direct-transfer address; ok is false
// when the worker has no peer plane (mpi and sockets channels, or a
// worker that is gone).
func (m *modelProxy) peerAddr() (workerPeer, bool) {
	m.mu.Lock()
	ch := m.spec.Channel
	worker := m.endpointLocked().worker // rank 0 offers a gang's authoritative copy
	m.mu.Unlock()
	if ch != ChannelIbis || worker == 0 {
		return workerPeer{}, false
	}
	return m.sim.daemon.workerPeer(worker)
}

// TransferStats counts how transfers were carried.
type TransferStats struct {
	Direct   int // worker-to-worker transfers
	Fallback int // direct path failed, hairpin completed the transfer
	Hairpin  int // through the coupler from the start: no peer path, or a checkpoint
	// StripeFallback is always zero: striped transfers are gone, but
	// bench/jbench/workload_{bulk,coupled}.go read the field and only a
	// [benchmark] PR may change them.
	StripeFallback int
}

// TransferStats returns the session's transfer counters.
func (s *Simulation) TransferStats() TransferStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.transfers
}

// countTransfer records how one transfer from->to was carried — kind is a
// trace.Link* constant — in the session's TransferStats and on the link's
// row of the link-health table: one call, so the two cannot disagree.
func (s *Simulation) countTransfer(kind, from, to string) {
	s.mu.Lock()
	switch kind {
	case trace.LinkDirect:
		s.transfers.Direct++
	case trace.LinkHairpin:
		s.transfers.Hairpin++
	case trace.LinkFallback:
		s.transfers.Fallback++
	}
	id := s.session
	s.mu.Unlock()
	if s.rec == nil {
		return
	}
	if id != "" {
		s.rec.SessionTransfer(id)
	}
	s.rec.RecordLinkTransfer(from, to, kind)
}

// GoTransferState starts moving the named attribute columns (default
// mass/position/velocity) from src's worker to dst's worker and returns
// the transfer's future. The orchestration RPCs are on the wire before it
// returns; the bytes travel worker-to-worker when both ends have a peer
// plane, through the coupler otherwise.
func (s *Simulation) GoTransferState(src, dst StateEndpoint, attrs ...string) *Call {
	return s.goTransfer(src.stateProxy(), dst.stateProxy(), kernel.MethodApplyState, 0, attrs)
}

// TransferState moves the named attribute columns from src's worker to
// dst's worker and waits for completion — GoTransferState.Wait sugar.
// nil ctx means the session context.
func (s *Simulation) TransferState(ctx context.Context, src, dst StateEndpoint, attrs ...string) error {
	if ctx == nil {
		ctx = s.ctx
	}
	return s.GoTransferState(src, dst, attrs...).Wait(ctx)
}

// isPeerPathErr classifies errors that warrant falling back to the
// hairpin: the transfer machinery failed (stream, dial, abort, timeout)
// or the worker died mid-flight (a replacement may serve the hairpin).
func isPeerPathErr(err error) bool {
	return errors.Is(err, ErrTransport) || errors.Is(err, ErrWorkerDied)
}

// goTransfer is the general transfer: apply names the method the
// destination applies the payload with (set_state, or a staging method
// tagged by slot). The returned call completes, in virtual time, when the
// later of its RPCs does; the continuation that finishes it awaits them
// without touching the clock (Call.await).
func (s *Simulation) goTransfer(src, dst *modelProxy, apply string, slot uint64, attrs []string) *Call {
	attrs = defaultStateAttrs(attrs)
	c := newCall(s.clock, nil)
	at := s.clock.Now()
	dstPeer, dstOK := dst.peerAddr()
	_, srcOK := src.peerAddr()
	// A gang destination takes the hairpin: its ranks hold replicated
	// state, and the ordinary set_state broadcast is what keeps all K
	// replicas consistent (a peer stream would land on rank 0 alone). A
	// gang source is fine — rank 0 offers the authoritative copy.
	if dst.isGang() {
		dstOK = false
	}
	// A self-transfer cannot use the peer plane either: the worker's
	// relay loop is single-threaded, so its accept_state would block the
	// very offer_state that feeds it until the accept timed out. The
	// hairpin handles all three cases at ordinary RPC cost.
	if !srcOK || !dstOK || src == dst {
		s.countTransfer(trace.LinkHairpin, src.peerHost(), dst.peerHost())
		go s.runHairpin(c, src, dst, apply, slot, attrs, at)
		return c
	}

	id := s.daemon.ids.Add(1)
	// Both control RPCs are pipelined; their big cousin — the column
	// payload — never touches this machine. Transfer ops are bound calls
	// (lifecycle.go): a replacement worker has a different peer identity,
	// so a failed op falls back to the hairpin instead (which replays on
	// the replacement as usual).
	accept := dst.issue(at, request{Method: kernel.MethodAcceptState,
		Args: kernel.Encode(kernel.AcceptStateArgs{ID: id, Apply: apply, Slot: slot})}, callOpts{class: bound})
	offer := src.issue(at, request{Method: kernel.MethodOfferState,
		Args: kernel.Encode(kernel.OfferStateArgs{ID: id, Attrs: attrs, Peer: dstPeer.name})}, callOpts{class: bound})
	go func() {
		at, err := offer.await(s.ctx)
		if err != nil {
			// No stream is coming whatever the failure class (a worker
			// fault like an unknown attribute included): unblock the
			// accept so it does not hold the destination's relay loop —
			// and every RPC queued behind it — for the accept timeout.
			s.daemon.AbortTransfer(dstPeer.Address, id)
		} else {
			var accepted time.Duration
			if accepted, err = accept.await(s.ctx); err != nil && isPeerPathErr(err) {
				// The accept may still be parked (its stream died en route).
				s.daemon.AbortTransfer(dstPeer.Address, id)
			}
			at = max(at, accepted)
		}
		if err == nil {
			s.countTransfer(trace.LinkDirect, src.peerHost(), dstPeer.Host)
			c.finish(nil, nil, nil, at)
			return
		}
		if !isPeerPathErr(err) {
			c.finish(nil, nil, err, at)
			return
		}
		// Direct path failed: carry the columns over the coupler instead.
		s.countTransfer(trace.LinkFallback, src.peerHost(), dstPeer.Host)
		s.runHairpin(c, src, dst, apply, slot, attrs, at)
	}()
	return c
}

// runHairpin carries the columns through the coupler from virtual time at:
// one batched read from src as an unparsed StatePayload frame, one batched
// apply of it on dst — the pre-direct-plane data path, kept as the
// universal fallback. The coupler never decodes the columns it relays. It
// finishes c.
func (s *Simulation) runHairpin(c *Call, src, dst *modelProxy, apply string, slot uint64, attrs []string, at time.Duration) {
	get := src.issue(at, request{Method: "get_state",
		Args: kernel.AppendStateRequest(nil, &kernel.StateRequest{Attrs: attrs})}, callOpts{class: replayable})
	at, err := get.await(s.ctx)
	if err != nil {
		c.finish(nil, nil, err, at)
		return
	}
	// The result aliases the response frame, which the channel handed to
	// this call alone; it is copied once, into the apply request's frame
	// (which send hands back once a set_state apply has succeeded).
	at, err = dst.issue(at, kernel.NewApplyRequest(apply, slot, get.result), callOpts{class: replayable}).await(s.ctx)
	c.finish(nil, nil, err, at)
}

// GoFieldDirect evaluates the field of src's particles at tgt's positions
// with both inputs staged on the field worker over the direct data plane:
// the coupler orchestrates three RPCs but never holds the columns
// (bridge.DirectField). Staging pays one extra control round trip (the
// evaluation is issued after both stage applications), so it is used only
// when all three workers have peer planes — exactly the placements where
// the column payloads would otherwise hairpin over the coupler's WAN
// links. Everything else takes the classic sampled GoFieldAt path at its
// pre-direct-plane cost.
func (f *FieldModel) GoFieldDirect(src, tgt bridge.Dynamics) bridge.FieldCall {
	se, sok := src.(StateEndpoint)
	te, tok := tgt.(StateEndpoint)
	if sok && tok {
		_, srcOK := se.stateProxy().peerAddr()
		_, tgtOK := te.stateProxy().peerAddr()
		_, selfOK := f.peerAddr()
		if srcOK && tgtOK && selfOK {
			return f.goFieldStaged(se.stateProxy(), te.stateProxy(), tgt.N())
		}
	}
	return f.goFieldSampled(src, tgt)
}

// goFieldStaged moves both inputs worker-to-worker; the staged evaluation
// is issued once their applications are queued on the field worker, by the
// script itself when it first waits for the result. A continuation issuing
// it the moment the staging finished would race the calls the script
// issues next — the other direction's accepts go to the same worker, which
// serves its queue in arrival order — and the order is part of the
// result's virtual time. The evaluation is stamped with the time the
// staging completed, so waiting for the script costs it nothing.
func (f *FieldModel) goFieldStaged(src, tgt *modelProxy, n int) bridge.FieldCall {
	s := f.sim
	slot := s.daemon.ids.Add(1)
	t1 := s.goTransfer(src, f.modelProxy, "stage_sources", slot,
		[]string{data.AttrMass, data.AttrPos})
	t2 := s.goTransfer(tgt, f.modelProxy, "stage_targets", slot,
		[]string{data.AttrPos})
	dc := &directFieldCall{n: n, done: make(chan struct{})}
	var at1, at2 time.Duration
	var err1, err2 error
	go func() {
		defer close(dc.done)
		at1, err1 = t1.await(s.ctx)
		at2, err2 = t2.await(s.ctx)
	}()
	dc.issue = func() {
		if err1 != nil || err2 != nil {
			// The evaluation that would consume the slot will never be
			// issued; release whatever half was staged so the field
			// worker does not accumulate orphaned columns.
			f.Go("stage_release", kernel.FieldStagedArgs{Slot: slot})
			if err1 != nil {
				dc.err = fmt.Errorf("core: field staging (sources): %w", err1)
			} else {
				dc.err = fmt.Errorf("core: field staging (targets): %w", err2)
			}
			return
		}
		// Both stage applications are queued on the field worker (FIFO),
		// so the evaluation issued now runs against this slot's state.
		dc.call = f.issue(max(at1, at2), request{Method: "field_staged", Args: kernel.Encode(kernel.FieldStagedArgs{Slot: slot})}, callOpts{class: replayable})
	}
	return dc
}

// goFieldSampled is the classic data path as a future: sample the two
// models concurrently, then issue the evaluation with the columns in the
// call arguments.
func (f *FieldModel) goFieldSampled(src, tgt bridge.Dynamics) bridge.FieldCall {
	dc := &directFieldCall{n: tgt.N(), done: make(chan struct{})}
	go func() {
		defer close(dc.done)
		var srcMass []float64
		var srcPos, tgtPos []data.Vec3
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			srcMass, srcPos = src.Masses(), src.Positions()
		}()
		go func() {
			defer wg.Done()
			tgtPos = tgt.Positions()
		}()
		wg.Wait()
		dc.call = f.Go("field_at", kernel.FieldAtArgs{SrcMass: srcMass, SrcPos: srcPos, Targets: tgtPos})
	}()
	return dc
}

// directFieldCall is the pending staged field evaluation behind
// GoFieldDirect.
type directFieldCall struct {
	n    int
	done chan struct{}
	err  error
	call *Call
	// issue, when set, is what sets err or call: run once, after done, by
	// the first Wait.
	issue func()
	once  sync.Once
}

// Wait implements bridge.FieldCall.
func (dc *directFieldCall) Wait(ctx context.Context) ([]data.Vec3, []float64, float64, error) {
	zeros := func(err error) ([]data.Vec3, []float64, float64, error) {
		return make([]data.Vec3, dc.n), make([]float64, dc.n), 0, err
	}
	if ctx == nil {
		ctx = context.Background()
	}
	select {
	case <-dc.done:
	case <-ctx.Done():
		return zeros(ctx.Err())
	}
	if dc.issue != nil {
		dc.once.Do(dc.issue)
	}
	if dc.err != nil {
		return zeros(dc.err)
	}
	return fieldCall{call: dc.call, n: dc.n}.Wait(ctx)
}
