// Package deploy reimplements IbisDeploy: the deployment layer that lets a
// user describe resources in "a small number of simple configuration
// files", starts the SmartSockets hub each resource needs automatically,
// and submits jobs through JavaGAT — §3 and §5 of the paper. The rendered
// resource/job/overlay views regenerate the data behind the IbisDeploy GUI
// of Fig. 10.
//
// A Resource couples three things the rest of the stack keys on: the
// middleware adapter jobs are submitted through (local, ssh, pbs, sge),
// the hub host that anchors the resource in the SmartSockets
// overlay, and per-node device models (CPU, optional GPU) that drive
// virtual-time accounting and the core layer's device-aware worker
// placement — including co-locating the rank workers of a gang on one
// resource so their halo exchange stays on the site's internal links.
package deploy

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"jungle/internal/gat"
	"jungle/internal/smartsockets"
	"jungle/internal/vnet"
	"jungle/internal/vtime"
)

// Errors.
var (
	ErrUnknownResource = errors.New("deploy: unknown resource")
	ErrDupResource     = errors.New("deploy: resource already defined")
	ErrBadMiddleware   = errors.New("deploy: unsupported middleware")
)

// Middleware names accepted in resource descriptions.
var middlewares = map[string]bool{
	"local": true, "ssh": true, "pbs": true, "sge": true,
}

// Resource describes one compute resource, the information the paper's
// user supplies per resource: "hostname and type of middleware".
type Resource struct {
	Name       string
	Middleware string   // local | ssh | pbs | sge
	Frontend   string   // submission host (and default hub host)
	Nodes      []string // compute nodes for batch clusters
	HubHost    string   // SmartSockets hub host (defaults to Frontend)

	// Device models per node: CPU always, GPU when the resource has
	// accelerators (the Multi-Kernel selector keys on this).
	CPU *vtime.Device
	GPU *vtime.Device

	// NodeSpeed optionally derates (or boosts) individual nodes of a
	// batch cluster relative to the resource's device model: a factor of
	// 0.25 means the node computes at a quarter of CPU/GPU Gflops. Nodes
	// absent from the map run at factor 1. This is the jungle
	// heterogeneity input the elastic-gang rebalancer reacts to.
	NodeSpeed map[string]float64
}

// NodeSpeedOf returns the speed factor for a node (1 when unset).
func (r *Resource) NodeSpeedOf(node string) float64 {
	if r.NodeSpeed == nil {
		return 1
	}
	if f, ok := r.NodeSpeed[node]; ok && f > 0 {
		return f
	}
	return 1
}

// NodeCount returns the schedulable node count (1 for non-batch resources).
func (r *Resource) NodeCount() int {
	if len(r.Nodes) > 0 {
		return len(r.Nodes)
	}
	return 1
}

// HasGPU reports whether the resource offers an accelerator.
func (r *Resource) HasGPU() bool { return r.GPU != nil }

// Deployment owns the broker, hub overlay and resource set for one user
// session (the paper's per-user Ibis daemon holds exactly one).
type Deployment struct {
	Net     *vnet.Network
	FS      *gat.FS
	Catalog *gat.Catalog
	Broker  *gat.Broker

	mu        sync.Mutex
	resources map[string]*Resource
	overlay   *smartsockets.Overlay
	localHost string
	// jobs holds the submitted jobs that had not finished at the last
	// sweep, plus those submitted since; kept is its length after that
	// sweep, and finished counts by end state the jobs sweeps dropped.
	jobs     []*gat.Job
	kept     int
	finished [gat.Canceled + 1]int

	// cap is the multi-tenant capacity ledger (capacity.go): per-resource
	// reserved/committed nodes per owning session.
	cap capLedger
}

// New creates a deployment submitting from localHost. A hub is started on
// the local machine immediately (the coupler's side of the overlay).
func New(network *vnet.Network, localHost string) (*Deployment, error) {
	fs := gat.NewFS(network)
	cat := gat.NewCatalog()
	d := &Deployment{
		Net: network, FS: fs, Catalog: cat,
		Broker:    gat.NewBroker(network, fs, cat, localHost),
		resources: make(map[string]*Resource),
		overlay:   &smartsockets.Overlay{},
		localHost: localHost,
	}
	if _, err := d.overlay.AddHub(network, localHost); err != nil {
		return nil, fmt.Errorf("deploy: local hub: %w", err)
	}
	return d, nil
}

// LocalHost returns the submitting host.
func (d *Deployment) LocalHost() string { return d.localHost }

// Overlay returns the hub overlay (Fig. 10's top-right view).
func (d *Deployment) Overlay() *smartsockets.Overlay { return d.overlay }

// AddResource registers a resource: the cluster scheduler is created for
// batch middleware and — as IbisDeploy does automatically — a SmartSockets
// hub is started on the resource and linked into the overlay.
func (d *Deployment) AddResource(r Resource) error {
	if r.Name == "" || r.Frontend == "" {
		return fmt.Errorf("deploy: resource needs name and frontend (%+v)", r)
	}
	if !middlewares[r.Middleware] {
		return fmt.Errorf("%w: %q", ErrBadMiddleware, r.Middleware)
	}
	if d.Net.Host(r.Frontend) == nil {
		return fmt.Errorf("deploy: %w: %q", vnet.ErrUnknownHost, r.Frontend)
	}
	if r.HubHost == "" {
		r.HubHost = r.Frontend
	}
	d.mu.Lock()
	if _, dup := d.resources[r.Name]; dup {
		d.mu.Unlock()
		return fmt.Errorf("%w: %q", ErrDupResource, r.Name)
	}
	d.resources[r.Name] = &r
	d.mu.Unlock()

	if r.Middleware == "pbs" || r.Middleware == "sge" {
		d.Broker.RegisterCluster(r.Frontend, r.Nodes)
	}
	if _, err := d.overlay.AddHub(d.Net, r.HubHost); err != nil {
		return fmt.Errorf("deploy: hub on %s: %w", r.HubHost, err)
	}
	return nil
}

// SetNodeSpeed records a per-node speed factor on a registered resource
// (see Resource.NodeSpeed). Testbeds use it to induce rank skew.
func (d *Deployment) SetNodeSpeed(resource, node string, factor float64) error {
	if factor <= 0 {
		return fmt.Errorf("deploy: node speed factor must be positive, got %v", factor)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	r, ok := d.resources[resource]
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownResource, resource)
	}
	if r.NodeSpeed == nil {
		r.NodeSpeed = make(map[string]float64)
	}
	r.NodeSpeed[node] = factor
	return nil
}

// Resource returns a registered resource.
func (d *Deployment) Resource(name string) (*Resource, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	r, ok := d.resources[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownResource, name)
	}
	return r, nil
}

// Resources returns all resource names, sorted.
func (d *Deployment) Resources() []string {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]string, 0, len(d.resources))
	for n := range d.resources {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// uri maps a resource to its JavaGAT submission URI.
func (r *Resource) uri() string {
	switch r.Middleware {
	case "local":
		return "local://"
	default:
		return r.Middleware + "://" + r.Frontend
	}
}

// Submit starts a job on the named resource and tracks it until it
// finishes.
func (d *Deployment) Submit(resource string, desc gat.JobDescription) (*gat.Job, error) {
	r, err := d.Resource(resource)
	if err != nil {
		return nil, err
	}
	j, err := d.Broker.Submit(desc, r.uri())
	if err != nil {
		return nil, fmt.Errorf("deploy: submit to %s: %w", resource, err)
	}
	d.mu.Lock()
	d.jobs = append(d.jobs, j)
	// Sweeping only once the list has doubled since the last sweep keeps a
	// submit amortised O(1).
	if len(d.jobs) > 2*d.kept {
		d.sweepLocked()
	}
	d.mu.Unlock()
	return j, nil
}

// sweepLocked drops finished jobs from the list and counts them by end
// state. Caller holds d.mu.
func (d *Deployment) sweepLocked() {
	live := d.jobs[:0]
	for _, j := range d.jobs {
		switch st := j.State(); st {
		case gat.Stopped, gat.Failed, gat.Canceled:
			d.finished[st]++
		default:
			live = append(live, j)
		}
	}
	clear(d.jobs[len(live):])
	d.jobs, d.kept = live, len(live)
}

// Jobs returns the submitted jobs that have not finished.
func (d *Deployment) Jobs() []*gat.Job {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.sweepLocked()
	return append([]*gat.Job(nil), d.jobs...)
}

// CancelAll cancels all tracked jobs.
func (d *Deployment) CancelAll() {
	for _, j := range d.Jobs() {
		j.Cancel()
	}
}

// Stop cancels jobs and shuts the hub overlay down.
func (d *Deployment) Stop() {
	d.CancelAll()
	d.overlay.Stop()
}

// RenderStatus renders the IbisDeploy GUI's data: resources (top-left of
// Fig. 10), jobs (bottom half: the live ones, then one line counting the
// finished) and the overlay map (top-right).
func (d *Deployment) RenderStatus() string {
	var b strings.Builder
	b.WriteString("resources:\n")
	for _, name := range d.Resources() {
		r, _ := d.Resource(name)
		gpu := ""
		if r.HasGPU() {
			gpu = " +gpu:" + r.GPU.Name
		}
		fmt.Fprintf(&b, "  %-12s %-8s %-22s nodes=%d%s\n",
			name, r.Middleware, r.Frontend, r.NodeCount(), gpu)
	}
	b.WriteString("jobs:\n")
	for _, j := range d.Jobs() {
		fmt.Fprintf(&b, "  #%d %-24s %-8s on %-20s nodes=%d\n",
			j.ID, j.Desc.Executable, j.State(), j.Target, j.Desc.Nodes)
	}
	d.mu.Lock()
	fmt.Fprintf(&b, "  finished: %d stopped, %d failed, %d canceled\n",
		d.finished[gat.Stopped], d.finished[gat.Failed], d.finished[gat.Canceled])
	d.mu.Unlock()
	b.WriteString(d.overlay.RenderMap())
	return b.String()
}

// hubSettleBudget bounds how long deployment setup may take in real time;
// exposed for tests that assert setup stays fast.
const hubSettleBudget = 30 * time.Second
