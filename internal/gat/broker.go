package gat

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"jungle/internal/vnet"
)

// Adapter submits a job to one middleware family. Implementations: local,
// ssh, pbs, sge.
type Adapter interface {
	// Scheme returns the URI scheme this adapter serves.
	Scheme() string
	// Submit starts the job asynchronously on the target host. It returns
	// an error when this middleware cannot serve the target at all (the
	// broker then tries the next adapter).
	Submit(b *Broker, j *Job, target string) error
}

// Broker is the JavaGAT resource broker: it owns the adapter set, the
// executable catalog, the virtual filesystem, and per-cluster schedulers.
type Broker struct {
	Net     *vnet.Network
	FS      *FS
	Catalog *Catalog
	// SubmitHost is the host this broker (the daemon) runs on; staging
	// sources and middleware reachability checks are relative to it.
	SubmitHost string

	mu       sync.Mutex
	adapters []Adapter
	clusters map[string]*clusterSched // frontend host -> scheduler

	// jobIDs numbers this broker's jobs, so a status view does not depend
	// on what else the process ran.
	jobIDs atomic.Int64
}

// NewBroker returns a broker with the standard adapter stack (local, ssh,
// sge, pbs) in JavaGAT's preference order.
func NewBroker(network *vnet.Network, fs *FS, catalog *Catalog, submitHost string) *Broker {
	b := &Broker{
		Net: network, FS: fs, Catalog: catalog, SubmitHost: submitHost,
		clusters: make(map[string]*clusterSched),
	}
	b.adapters = []Adapter{&localAdapter{}, &sshAdapter{}, &sgeAdapter{}, &pbsAdapter{}}
	return b
}

// RegisterCluster makes a batch cluster known: frontend is the submission
// point (pbs://frontend or sge://frontend), nodes its compute nodes.
func (b *Broker) RegisterCluster(frontend string, nodes []string) {
	b.mu.Lock()
	b.clusters[frontend] = newClusterSched(nodes)
	b.mu.Unlock()
}

// cluster returns the scheduler for a frontend.
func (b *Broker) cluster(frontend string) (*clusterSched, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	s, ok := b.clusters[frontend]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownCluster, frontend)
	}
	return s, nil
}

// Submit starts a job on the resource named by uri ("scheme://host" or
// bare "host" for automatic adapter selection). The returned job is already
// Scheduled; use Wait or Done to follow it.
func (b *Broker) Submit(desc JobDescription, uri string) (*Job, error) {
	if desc.Nodes < 1 {
		desc.Nodes = 1
	}
	if _, err := b.Catalog.Lookup(desc.Executable); err != nil {
		return nil, err
	}
	scheme, target := splitURI(uri)

	b.mu.Lock()
	adapters := append([]Adapter(nil), b.adapters...)
	b.mu.Unlock()

	if scheme != "" {
		for _, a := range adapters {
			if a.Scheme() != scheme {
				continue
			}
			j := newJob(b.jobIDs.Add(1), desc, scheme, target)
			if err := a.Submit(b, j, target); err != nil {
				return nil, err
			}
			return j, nil
		}
		return nil, fmt.Errorf("%w: %q", ErrUnknownScheme, scheme)
	}

	// Automatic selection: first adapter that accepts wins — "JavaGAT will
	// automatically select the appropriate adapter for each resource".
	var errs []string
	for _, a := range adapters {
		j := newJob(b.jobIDs.Add(1), desc, a.Scheme(), target)
		if err := a.Submit(b, j, target); err != nil {
			errs = append(errs, fmt.Sprintf("%s: %v", a.Scheme(), err))
			continue
		}
		return j, nil
	}
	return nil, fmt.Errorf("%w: %s", ErrNoAdapter, strings.Join(errs, "; "))
}

func splitURI(uri string) (scheme, target string) {
	if i := strings.Index(uri, "://"); i >= 0 {
		return uri[:i], uri[i+3:]
	}
	return "", uri
}

// Execute stages files, runs the process on the allocated hosts, stages
// out, invokes release (may be nil) and finalizes the job state. It is the
// adapter-side entry point: adapters call it on their own goroutine after
// allocating hosts.
func (b *Broker) Execute(j *Job, hosts []string, release func(), submitOverhead time.Duration) {
	defer func() {
		if release != nil {
			release()
		}
	}()

	proc, err := b.Catalog.Lookup(j.Desc.Executable)
	if err != nil {
		j.setState(Failed, err)
		return
	}

	start := submitOverhead
	// Stage in (to the primary node).
	for _, fp := range j.Desc.StageIn {
		cost, err := b.FS.Copy(b.SubmitHost, fp.SrcPath, hosts[0], fp.DstPath)
		if err != nil {
			j.setState(Failed, fmt.Errorf("stage in: %w", err))
			return
		}
		start += cost
	}

	ctx := &Context{
		Hosts: hosts, Args: j.Desc.Args, Net: b.Net, FS: b.FS,
		Cancel: j.cancel, StartedAt: start,
	}
	j.setRunning(hosts)
	err = proc(ctx)

	select {
	case <-j.cancel:
		j.setState(Canceled, ErrCanceled)
		return
	default:
	}
	if err != nil {
		j.setState(Failed, err)
		return
	}
	for _, fp := range j.Desc.StageOut {
		if _, err := b.FS.Copy(hosts[0], fp.SrcPath, b.SubmitHost, fp.DstPath); err != nil {
			j.setState(Failed, fmt.Errorf("stage out: %w", err))
			return
		}
	}
	j.setState(Stopped, nil)
}

// localAdapter runs jobs on the submit host itself.
type localAdapter struct{}

func (a *localAdapter) Scheme() string { return "local" }

func (a *localAdapter) Submit(b *Broker, j *Job, target string) error {
	if target != "" && target != b.SubmitHost && target != "localhost" {
		return fmt.Errorf("gat: local adapter cannot reach %q", target)
	}
	if j.Desc.Nodes > 1 {
		return fmt.Errorf("gat: local adapter is single-node (%d requested)", j.Desc.Nodes)
	}
	go b.Execute(j, []string{b.SubmitHost}, nil, queueDelay("local"))
	return nil
}

// sshAdapter runs single-node jobs directly on a remote host via its sshd.
type sshAdapter struct{}

func (a *sshAdapter) Scheme() string { return "ssh" }

func (a *sshAdapter) Submit(b *Broker, j *Job, target string) error {
	if target == "" {
		return fmt.Errorf("gat: ssh adapter needs a host")
	}
	if j.Desc.Nodes > 1 {
		return fmt.Errorf("gat: ssh adapter is single-node (%d requested)", j.Desc.Nodes)
	}
	h := b.Net.Host(target)
	if h == nil {
		return fmt.Errorf("gat: ssh: %w: %q", vnet.ErrUnknownHost, target)
	}
	ok, err := b.Net.AllowsInboundFrom(target, b.SubmitHost, vnet.SSHPort)
	if err != nil {
		return err
	}
	if !ok || !b.Net.Reachable(b.SubmitHost, target) {
		return fmt.Errorf("gat: ssh: %s not reachable from %s", target, b.SubmitHost)
	}
	go b.Execute(j, []string{target}, nil, queueDelay("ssh"))
	return nil
}

// batchSubmit is shared by the PBS and SGE adapters: allocate nodes from
// the cluster scheduler (queueing FIFO), then run.
func batchSubmit(b *Broker, j *Job, frontend, scheme string) error {
	sched, err := b.cluster(frontend)
	if err != nil {
		return err
	}
	if j.Desc.Nodes > sched.size() {
		return fmt.Errorf("%w: %d > %d on %s", ErrTooManyNodes, j.Desc.Nodes, sched.size(), frontend)
	}
	if ok, err := b.Net.AllowsInboundFrom(frontend, b.SubmitHost, vnet.SSHPort); err != nil || !ok {
		return fmt.Errorf("gat: %s: frontend %s not reachable from %s", scheme, frontend, b.SubmitHost)
	}
	go func() {
		hosts, err := sched.acquire(j.Desc.Nodes, j.cancel)
		if err != nil {
			j.setState(Canceled, err)
			return
		}
		b.Execute(j, hosts, func() { sched.release(hosts) }, queueDelay(scheme))
	}()
	return nil
}

// pbsAdapter submits to a PBS-managed cluster frontend.
type pbsAdapter struct{}

func (a *pbsAdapter) Scheme() string { return "pbs" }

func (a *pbsAdapter) Submit(b *Broker, j *Job, target string) error {
	return batchSubmit(b, j, target, "pbs")
}

// sgeAdapter submits to an SGE-managed cluster frontend (DAS-4's scheduler).
type sgeAdapter struct{}

func (a *sgeAdapter) Scheme() string { return "sge" }

func (a *sgeAdapter) Submit(b *Broker, j *Job, target string) error {
	return batchSubmit(b, j, target, "sge")
}
