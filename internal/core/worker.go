package core

import (
	"errors"
	"fmt"
	"strconv"
	"time"

	"jungle/internal/core/kernel"
	"jungle/internal/deploy"
	"jungle/internal/gat"
	"jungle/internal/gostack"
	"jungle/internal/ipl"
	"jungle/internal/smartsockets"
	"jungle/internal/vnet"
)

// Env is the execution environment shared by the daemon and every worker
// process — the reproduction's stand-in for "AMUSE is already installed on
// the target resource" (§5): workers find their code, the network and the
// registry through it.
type Env struct {
	Net        *vnet.Network
	Deployment *deploy.Deployment
	Pool       string
	Registry   smartsockets.Address
}

// Port layout. Each worker id gets a private port block on its node.
const (
	workerPortBase   = 41000
	workerPortStride = 16
)

func workerBasePort(id int) int  { return workerPortBase + id*workerPortStride }
func reqPortName(id int) string  { return fmt.Sprintf("req-%d", id) }
func respPortName(id int) string { return fmt.Sprintf("resp-%d", id) }
func workerJobArgs(kind Kind, kernelName string, id int, resource string, rank, size int) []string {
	return []string{string(kind), kernelName, strconv.Itoa(id), resource,
		strconv.Itoa(rank), strconv.Itoa(size)}
}

func parseWorkerArgs(args []string) (kind Kind, kernelName string, id int, resource string, gang *kernel.GangInfo, err error) {
	if len(args) != 6 {
		return "", "", 0, "", nil, fmt.Errorf("core: worker args %v: want 6", args)
	}
	id, err = strconv.Atoi(args[2])
	if err != nil {
		return "", "", 0, "", nil, fmt.Errorf("core: worker id: %w", err)
	}
	rank, err := strconv.Atoi(args[4])
	if err != nil {
		return "", "", 0, "", nil, fmt.Errorf("core: worker gang rank: %w", err)
	}
	size, err := strconv.Atoi(args[5])
	if err != nil {
		return "", "", 0, "", nil, fmt.Errorf("core: worker gang size: %w", err)
	}
	if size > 1 {
		gang = &kernel.GangInfo{Rank: rank, Size: size}
	}
	return Kind(args[0]), args[1], id, args[3], gang, nil
}

// electionDaemon is the IPL election naming the daemon instance.
const electionDaemon = "amuse-daemon"

// workerService parses a worker job's arguments and starts its service.
func workerService(env *Env, ctx *gat.Context) (svc service, kind Kind, id int, res *deploy.Resource, gang *kernel.GangInfo, err error) {
	kind, _, id, resourceName, gang, err := parseWorkerArgs(ctx.Args)
	if err == nil {
		res, err = env.Deployment.Resource(resourceName)
	}
	if err == nil {
		svc, err = newService(kind, res, ctx.Hosts, env, gang)
	}
	return svc, kind, id, res, gang, err
}

// workerMain is the "amuse-worker" executable of Fig. 5: it hosts the model
// service (the worker proper) and a proxy that joins the IPL pool and relays
// RPC between the daemon and the worker — over §5's local loopback socket,
// which the proxy crosses in line and prices as that socket (loopback).
func workerMain(env *Env, ctx *gat.Context) error {
	svc, kind, id, res, gang, err := workerService(env, ctx)
	if err != nil {
		return err
	}
	defer svc.Close()
	// Fail at startup, not at gang_init time: a kind without gang support
	// must not come up as K divergent solo instances.
	if _, ok := svc.(kernel.Shardable); gang != nil && !ok {
		return fmt.Errorf("core: kind %q cannot run as a gang rank (service does not implement kernel.Shardable)", kind)
	}
	host := ctx.Hosts[0]
	loop := &loopback{hop: newHop(env.Net, host), svc: svc}

	// Proxy side: join the pool through the resource's hub.
	ib, err := ipl.Create(env.Net, ipl.Config{
		Pool: env.Pool, Host: host, BasePort: workerBasePort(id),
		HubHost: res.HubHost, Registry: env.Registry,
		EventBuffer: 1, // a worker never reads its event stream: no 128-event buffer per start
	})
	if err != nil {
		return fmt.Errorf("core: proxy join: %w", err)
	}
	defer ib.End() // after a Kill, a no-op

	// Direct data plane: peer streams from other workers land on this
	// listener and never touch the daemon's machine.
	plane, err := newPeerPlane(ib)
	if err != nil {
		return err
	}

	// Find the daemon and open the response path.
	daemonID, err := ib.Elect(electionDaemon)
	if err != nil {
		return err
	}
	respPort := ib.CreateSendPort(ipl.OneToOne, "resp")
	if err := respPort.Connect(daemonID, respPortName(id), 0); err != nil {
		return fmt.Errorf("core: proxy response port: %w", err)
	}
	// Request path: requests from the daemon arrive here.
	reqPort, err := ib.CreateReceivePort(ipl.OneToOne, reqPortName(id), nil)
	if err != nil {
		return err
	}

	// Announce readiness (response ID 0 is the ready marker).
	if err := respPort.Write(kernel.AppendResponse(nil, &response{ID: 0, DoneAt: ctx.StartedAt}), ctx.StartedAt); err != nil {
		return err
	}

	// Watch for cancellation: the paper's "reservation ends, worker killed
	// by the scheduler" — the proxy dies without a registry leave, so the
	// pool sees Died. Stopping the peer plane closes the gang links, so a
	// dispatch stuck in a collective returns and the relay can end.
	relayDone := make(chan struct{})
	go func() {
		gostack.Grow() // the kill it makes runs deep
		select {
		case <-ctx.Cancel:
			ib.Kill()
			plane.stop()
		case <-relayDone:
		}
	}()

	// Relay loop: daemon -> proxy -> worker -> proxy -> daemon, one call at
	// a time. Transfer ops and gang wiring are the proxy's own (handle). An
	// undecodable request is answered as a transport fault; one with no ID
	// ends the proxy as a crash would, and the daemon fails the worker's calls.
	var relayErr error
	for relayErr == nil {
		rm, err := reqPort.Receive()
		if err != nil {
			break // port closed: daemon shut us down or we were killed
		}
		var req request
		var reply []byte
		at := rm.Arrival
		switch err := kernel.UnmarshalRequest(rm.Data, &req); {
		case err != nil && req.ID == 0:
			relayErr = fmt.Errorf("%w: proxy received an undecodable request: %v", kernel.ErrTransport, err)
			ib.Kill()
			continue
		case err != nil:
			reply = kernel.FrameResponse(req.ID, kernel.Reply{}, at, fmt.Errorf("%w: proxy received an undecodable request: %v", kernel.ErrTransport, err))
		case isProxyMethod(req.Method):
			resp := plane.handle(&req, at, loop, gang)
			reply, at = kernel.AppendResponse(nil, resp), resp.DoneAt
		default:
			reply, at = loop.serve(&req, at)
		}
		relayErr = respPort.Write(reply, at)
	}
	close(relayDone)
	plane.stop()
	if ctx.Canceled() {
		return gat.ErrCanceled
	}
	if relayErr != nil && !errors.Is(relayErr, vnet.ErrClosed) {
		return relayErr
	}
	return nil
}

// hop is §5's local loopback socket on one host, crossed in line: the
// coupler's to the daemon (Daemon.relay) and to a sockets worker
// (localWorker), and a proxy's to its model service (loopback). No message
// on it ever waited for another, so its only effects are its bytes,
// recorded under class "loopback", and its arrivals, each the send time
// plus the path's transfer time for the bytes.
type hop struct {
	bytes *vnet.Cell // (host, host, "loopback")
	path  vnet.Path  // Route(host, host)
}

func newHop(net *vnet.Network, host string) hop {
	path, _ := net.Route(host, host) // a host's route to itself is the loopback path, and cannot fail
	return hop{bytes: net.Cell(host, host, "loopback"), path: path}
}

// cross carries n bytes sent at virtual time at over the hop and returns
// their arrival.
func (h hop) cross(n int, at time.Duration) time.Duration {
	h.bytes.Add(n)
	return at + h.path.TransferTime(n)
}

// loopback is the hop between a worker's proxy and its model service: the
// relay never had two calls on it.
type loopback struct {
	hop
	svc service
}

// serve runs req, which reached the proxy at virtual time at, across the
// hop and back: the response frame (the buffer the service encoded its
// result into, header filled in) and its arrival at the proxy.
func (l *loopback) serve(req *request, at time.Duration) ([]byte, time.Duration) {
	result, doneAt, err := l.svc.Dispatch(req.Method, req.Args, l.cross(req.Size(), at))
	reply := kernel.FrameResponse(req.ID, result, doneAt, err)
	return reply, l.cross(len(reply), doneAt)
}

// call serves a request the proxy makes itself, sent at req.SentAt: the
// response, DoneAt its arrival back, and the frame it is in, the proxy's own.
func (l *loopback) call(req *request) (*response, []byte) {
	reply, at := l.serve(req, req.SentAt)
	resp := new(response)
	kernel.UnmarshalResponse(reply, resp) // the frame FrameResponse just built
	resp.DoneAt = at
	return resp, reply
}

// socketWorkerMain is the "sockets channel" worker: a separate process on
// the coupler's machine serving RPC over a loopback socket, no daemon or IPL
// involved (AMUSE's pre-existing sockets channel). It hands over the channel
// to it (Daemon.startWorker) and serves that channel's queue, pricing each
// crossing as the socket (hop), until the channel closes. A cancelled job
// ends the channel's calls at once, the one in dispatch included: the
// process they were sent to is gone.
func (d *Daemon) socketWorkerMain(ctx *gat.Context) error {
	host := ctx.Hosts[0]
	if local := d.deployment.LocalHost(); host != local {
		return fmt.Errorf("core: a sockets worker runs on the local host %s, not on %s", local, host)
	}
	// Always solo: the daemon starts gang ranks on the ibis channel only.
	svc, _, id, _, _, err := workerService(d.env, ctx)
	if err != nil {
		return err
	}
	wh := d.worker(id)
	if wh == nil { // stopped before it came up
		svc.Close()
		return gat.ErrCanceled
	}
	loop := newHop(d.env.Net, host)
	ch := newWorkerChannel(svc, &loop, nil)
	wh.served <- ch
	go func() {
		select {
		case <-ctx.Cancel:
			ch.fail(ErrWorkerDied)
			ch.worker.queue.Close()
		case <-ch.worker.stopped:
		}
	}()
	ch.worker.serve()
	if ctx.Canceled() {
		return gat.ErrCanceled
	}
	return nil
}
