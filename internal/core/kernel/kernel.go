// Package kernel is the pluggable worker-kernel layer of the Distributed
// AMUSE reproduction. It defines the worker-side Service contract, a
// process-wide registry mapping kernel kinds to service factories, the
// wire protocol (request/response framing, typed payloads, the batched
// columnar state codec, and the worker-to-worker transfer, gang-link and
// checkpoint-snapshot frames) shared by the coupler, the daemon proxy
// and every worker, the gang contract (GangInfo, Shardable) under which
// one kernel runs domain-decomposed across K worker processes, and the
// checkpoint capability (Checkpointable, Snapshot) under which a worker
// externalizes and restores its complete model state.
//
// The package is a leaf: it depends only on the data/deploy/vnet/vtime/
// mpisim substrates, never on internal/core or the physics packages.
// Physics packages register their service adapters here from an init
// function, so adding a new scenario kernel is one new package with zero
// core edits — the same linking pattern as database/sql drivers. Programs
// must import the adapter packages they intend to use (internal/kernels
// bundles the four standard ones).
package kernel

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"jungle/internal/deploy"
	"jungle/internal/vnet"
	"jungle/internal/vtime"
)

// Errors shared across the protocol stack. These four sentinels are the
// wire error taxonomy: every Response carries a Code that maps back to
// exactly one of them coupler-side (see Code and WireError in wire.go),
// so errors survive the hand-rolled codec and unwrap with errors.Is — no
// string matching anywhere on the path.
var (
	// ErrBadKind is returned when no factory is registered for a kind.
	ErrBadKind = errors.New("core: unknown worker kind")
	// ErrNoSuchMethod is returned by Dispatch for unknown methods.
	ErrNoSuchMethod = errors.New("core: no such method")
	// ErrBadMethod is the wire-taxonomy name for ErrNoSuchMethod.
	ErrBadMethod = ErrNoSuchMethod
	// ErrWorkerFault marks a model-level failure: the worker is alive and
	// the channel healthy, but the dispatched call itself failed (bad
	// arguments, physics error). Retrying on a replacement worker will not
	// help.
	ErrWorkerFault = errors.New("core: worker fault")
	// ErrWorkerDied marks a dead worker process: the job was killed, the
	// host crashed, or the pool observed the member leave. Replacement (if
	// enabled) is the correct recovery.
	ErrWorkerDied = errors.New("core: worker died")
	// ErrTransport marks a channel- or daemon-level failure (unroutable
	// worker id, undecodable frame, send on a closed connection) — the
	// call never reached, or never returned from, a live worker.
	ErrTransport = errors.New("core: transport fault")
	// ErrBusy marks an admission-control rejection: the control plane has
	// no capacity for the request right now and the client should retry
	// after a backoff. The structured retry-after hint travels in the
	// response payload; the sentinel is what errors.Is keys on.
	ErrBusy = errors.New("core: busy, retry later")
)

// Service is the worker-side model host: it owns the kernel, a virtual
// clock, and the dispatch table. One service lives inside each worker
// process.
type Service interface {
	// Dispatch runs one call arriving at virtual time `at` and returns the
	// encoded result plus the worker's clock when the call completed. args
	// alias the request's frame, which is the service's from here on: it may
	// keep views into it, and must not write to it.
	Dispatch(method string, args []byte, at time.Duration) (Reply, time.Duration, error)
	// Close releases resources (MPI worlds).
	Close()
}

// Config describes the environment a service is instantiated in: the
// resource it runs on (device models), the job's allocated hosts, the
// virtual network (multi-node workers open MPI worlds over it), and — for
// kernels deployed as a gang of workers — this rank's place in the gang.
type Config struct {
	Res   *deploy.Resource
	Hosts []string
	Net   *vnet.Network
	// Gang is non-nil when the service is one rank of a domain-decomposed
	// multi-worker kernel; the live communicator arrives later via
	// Shardable.SetGang (see gang.go).
	Gang *GangInfo
}

// Factory builds the service for one worker kind.
type Factory func(cfg Config) (Service, error)

var (
	regMu     sync.RWMutex
	factories = make(map[string]Factory)
)

// Register makes a factory available under a kind name. It is intended to
// be called from adapter package init functions and panics on duplicate
// registration — two packages claiming the same kind is a programming
// error that must not be resolved silently by link order.
func Register(kind string, f Factory) {
	if f == nil {
		panic("kernel: Register with nil factory for kind " + kind)
	}
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := factories[kind]; dup {
		panic(fmt.Sprintf("kernel: duplicate registration for kind %q", kind))
	}
	factories[kind] = f
}

// New instantiates the service for a kind, or ErrBadKind if no adapter
// package registered it (did the program import internal/kernels?).
func New(kind string, cfg Config) (Service, error) {
	regMu.RLock()
	f := factories[kind]
	regMu.RUnlock()
	if f == nil {
		return nil, fmt.Errorf("%w: %q", ErrBadKind, kind)
	}
	return f(cfg)
}

// Registered reports whether a kind has a factory.
func Registered(kind string) bool {
	regMu.RLock()
	defer regMu.RUnlock()
	_, ok := factories[kind]
	return ok
}

// PickDevice resolves a kernel to the device it runs on.
func PickDevice(res *deploy.Resource, wantGPU bool) (*vtime.Device, error) {
	if wantGPU {
		if res.GPU == nil {
			return nil, fmt.Errorf("core: resource %q has no GPU for the requested kernel", res.Name)
		}
		return res.GPU, nil
	}
	if res.CPU == nil {
		return nil, fmt.Errorf("core: resource %q has no CPU device model", res.Name)
	}
	return res.CPU, nil
}

// Derate returns a copy of dev with its peak Gflops scaled to the kernel
// family's sustained efficiency. Device Gflops are honest relative peaks
// for the paper's hardware; the per-family efficiency constants live with
// each adapter and were fitted jointly against §6.2's scenario 1–3
// numbers (see DESIGN.md for the fit).
func Derate(dev *vtime.Device, efficiency float64) *vtime.Device {
	if efficiency <= 0 {
		efficiency = 1
	}
	d := *dev
	d.Gflops = dev.Gflops * efficiency
	return &d
}

// NodeDerate applies the resource's per-node speed factor for host to a
// device model (see deploy.Resource.NodeSpeed). Services call it after
// Derate so a slow cluster node slows exactly the rank placed on it —
// the heterogeneity the elastic-gang rebalancer measures and corrects.
func NodeDerate(dev *vtime.Device, res *deploy.Resource, host string) *vtime.Device {
	f := res.NodeSpeedOf(host)
	if f == 1 {
		return dev
	}
	d := *dev
	d.Gflops = dev.Gflops * f
	return &d
}
