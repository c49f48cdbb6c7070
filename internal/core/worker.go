package core

import (
	"errors"
	"fmt"
	"strconv"

	"jungle/internal/core/kernel"
	"jungle/internal/deploy"
	"jungle/internal/gat"
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
	// DaemonPort is the local loopback port the coupler's channels dial —
	// §5's "connection ... created using a local loopback socket".
	DaemonPort = 17979

	workerPortBase   = 41000
	workerPortStride = 16
)

func workerBasePort(id int) int   { return workerPortBase + id*workerPortStride }
func workerLoopback(id int) int   { return workerBasePort(id) + 8 }
func socketWorkerPort(id int) int { return workerBasePort(id) + 9 }
func reqPortName(id int) string   { return fmt.Sprintf("req-%d", id) }
func respPortName(id int) string  { return fmt.Sprintf("resp-%d", id) }
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
		gang = &kernel.GangInfo{Rank: rank, Size: size, Neighbors: kernel.NeighborsOf(rank, size)}
	}
	return Kind(args[0]), args[1], id, args[3], gang, nil
}

// electionDaemon is the IPL election naming the daemon instance.
const electionDaemon = "amuse-daemon"

// workerMain is the "amuse-worker" executable of Fig. 5: it hosts the model
// service behind a loopback socket (the worker proper) and a proxy that
// joins the IPL pool and relays RPC between the daemon and the worker.
func workerMain(env *Env, ctx *gat.Context) error {
	kind, _, id, resourceName, gang, err := parseWorkerArgs(ctx.Args)
	if err != nil {
		return err
	}
	res, err := env.Deployment.Resource(resourceName)
	if err != nil {
		return err
	}
	svc, err := newService(kind, res, ctx.Hosts, env, gang)
	if err != nil {
		return err
	}
	defer svc.Close()
	if gang != nil {
		// Fail at startup, not at gang_init time: a kind without gang
		// support must not come up as K divergent solo instances.
		if _, ok := svc.(kernel.Shardable); !ok {
			return fmt.Errorf("core: kind %q cannot run as a gang rank (service does not implement kernel.Shardable)", kind)
		}
	}
	host := ctx.Hosts[0]

	// Worker side: model service behind a loopback listener.
	wl, err := env.Net.Listen(host, workerLoopback(id))
	if err != nil {
		return fmt.Errorf("core: worker loopback listen: %w", err)
	}
	defer wl.Close()
	serveDone := make(chan struct{})
	go func() {
		defer close(serveDone)
		conn, err := wl.Accept()
		if err != nil {
			return
		}
		conn.SetClass("loopback")
		serveConn(conn, svc)
	}()

	// Proxy side: join the pool through the resource's hub.
	ib, err := ipl.Create(env.Net, ipl.Config{
		Pool: env.Pool, Host: host, BasePort: workerBasePort(id),
		HubHost: res.HubHost, Registry: env.Registry,
		EventBuffer: 1, // a worker never reads its event stream: no 128-event buffer per start
	})
	if err != nil {
		return fmt.Errorf("core: proxy join: %w", err)
	}

	// Loopback connection proxy -> worker.
	loop, err := env.Net.Dial(host, host, workerLoopback(id))
	if err != nil {
		ib.End()
		return fmt.Errorf("core: proxy loopback dial: %w", err)
	}
	loop.SetClass("loopback")

	// Direct data plane: peer streams from other workers land on this
	// listener and never touch the daemon's machine.
	plane, err := newPeerPlane(ib)
	if err != nil {
		ib.End()
		return err
	}

	// Find the daemon and open the response path.
	daemonID, err := ib.Elect(electionDaemon)
	if err != nil {
		ib.End()
		return err
	}
	respPort := ib.CreateSendPort(ipl.OneToOne, "resp")
	if err := respPort.Connect(daemonID, respPortName(id), 0); err != nil {
		ib.End()
		return fmt.Errorf("core: proxy response port: %w", err)
	}
	// Request path: requests from the daemon arrive here.
	reqPort, err := ib.CreateReceivePort(ipl.OneToOne, reqPortName(id), nil)
	if err != nil {
		ib.End()
		return err
	}

	// Announce readiness (response ID 0 is the ready marker).
	if err := respPort.Write(kernel.AppendResponse(nil, &response{ID: 0, DoneAt: ctx.StartedAt}), ctx.StartedAt); err != nil {
		ib.End()
		return err
	}

	// Watch for cancellation: the paper's "reservation ends, worker killed
	// by the scheduler" — the proxy dies without a registry leave, so the
	// pool sees Died.
	relayDone := make(chan struct{})
	go func() {
		select {
		case <-ctx.Cancel:
			ib.Kill()
			loop.Close()
		case <-relayDone:
		}
	}()

	// Relay loop: daemon -> proxy -> worker -> proxy -> daemon. Transfer
	// ops (offer_state/accept_state) and gang wiring (gang_init) are the
	// proxy's own: they move state between the peer plane and the worker
	// without involving the daemon.
	var relayErr error
	for {
		rm, err := reqPort.Receive()
		if err != nil {
			break // port closed: daemon shut us down or we were killed
		}
		var req request
		if err := kernel.UnmarshalRequest(rm.Data, &req); err == nil &&
			(isTransferMethod(req.Method) || isGangMethod(req.Method)) {
			var resp *response
			if isGangMethod(req.Method) {
				resp = plane.handleGangInit(&req, rm.Arrival, svc)
			} else {
				resp = plane.handleTransfer(&req, rm.Arrival, loop)
			}
			if err := respPort.Write(kernel.AppendResponse(nil, resp), resp.DoneAt); err != nil {
				relayErr = err
				break
			}
			continue
		}
		if _, err := loop.Send(rm.Data, rm.Arrival); err != nil {
			relayErr = err
			break
		}
		reply, err := loop.Recv()
		if err != nil {
			relayErr = err
			break
		}
		if err := respPort.Write(reply.Data, reply.Arrival); err != nil {
			relayErr = err
			break
		}
	}
	close(relayDone)
	loop.Close()
	plane.stop()
	ib.End()
	<-serveDone
	if ctx.Canceled() {
		return gat.ErrCanceled
	}
	if relayErr != nil && !errors.Is(relayErr, vnet.ErrClosed) {
		return relayErr
	}
	return nil
}

// socketWorkerMain is the "sockets channel" worker: a separate local
// process serving RPC straight over a loopback connection, no daemon or IPL
// involved (AMUSE's pre-existing sockets channel).
func socketWorkerMain(env *Env, ctx *gat.Context) error {
	kind, _, id, resourceName, _, err := parseWorkerArgs(ctx.Args)
	if err != nil {
		return err
	}
	res, err := env.Deployment.Resource(resourceName)
	if err != nil {
		return err
	}
	// Sockets workers are always solo: gangs need the peer plane.
	svc, err := newService(kind, res, ctx.Hosts, env, nil)
	if err != nil {
		return err
	}
	defer svc.Close()
	// The coupler side listens before the job is submitted (Daemon.
	// startWorker): dial back, serve until the connection closes.
	conn, err := env.Net.Dial(ctx.Hosts[0], env.Deployment.LocalHost(), socketWorkerPort(id))
	if err != nil {
		return fmt.Errorf("core: socket worker dial-back: %w", err)
	}
	conn.SetClass("loopback")
	go func() {
		<-ctx.Cancel
		conn.Close()
	}()
	serveConn(conn, svc)
	if ctx.Canceled() {
		return gat.ErrCanceled
	}
	return nil
}
