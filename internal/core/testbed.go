package core

import (
	"fmt"
	"time"

	"jungle/internal/deploy"
	"jungle/internal/trace"
	"jungle/internal/vnet"
	"jungle/internal/vtime"
)

// Testbed is the shared experimental setup: the paper's machines, networks
// and resource descriptions, plus a running daemon. All experiments (E1–E8)
// build on one of its two variants.
type Testbed struct {
	Net        *vnet.Network
	Recorder   *trace.Recorder
	Deployment *deploy.Deployment
	Daemon     *Daemon

	// Resource names registered with the deployment.
	Client string // "desktop" (lab) or "laptop" (SC11) or "home" (DSL)
	VU     string // DAS-4 VU: 8-node cluster (Gadget)
	UvA    string // DAS-4 UvA: 1 node (SSE)
	TUD    string // DAS-4 TUD: 2 GPU nodes (Octgrav)
	LGM    string // Little Green Machine: Tesla C2050 (PhiGRAPE)

	// DSL testbed sites (NewDSLTestbed only).
	SiteA, SiteB string

	// Elastic testbed resources (NewElasticTestbed only): the skewed
	// cluster and the uniform migration target.
	Mixed, Spare string
}

// Device models: honest relative peaks for the paper's hardware.
func desktopCPU() *vtime.Device {
	return &vtime.Device{Name: "core2-quad", Kind: vtime.CPU, Gflops: 8, Cores: 4}
}
func laptopCPU() *vtime.Device {
	return &vtime.Device{Name: "laptop", Kind: vtime.CPU, Gflops: 6, Cores: 2}
}
func geforce9600GT() *vtime.Device {
	return &vtime.Device{Name: "9600gt", Kind: vtime.GPU, Gflops: 300, Cores: 1,
		LaunchLatency: 60 * time.Microsecond}
}
func teslaC2050() *vtime.Device {
	return &vtime.Device{Name: "c2050", Kind: vtime.GPU, Gflops: 1000, Cores: 1,
		LaunchLatency: 30 * time.Microsecond}
}
func gtx480() *vtime.Device {
	return &vtime.Device{Name: "gtx480", Kind: vtime.GPU, Gflops: 1300, Cores: 1,
		LaunchLatency: 30 * time.Microsecond}
}
func das4Node() *vtime.Device {
	return &vtime.Device{Name: "das4-xeon", Kind: vtime.CPU, Gflops: 10, Cores: 8}
}

// Link classes (bandwidth in bytes/s).
const (
	gbE        = 1.25e8 // 1 GbE / 1G lightpath
	tenG       = 1.25e9 // 10G STARplane lightpaths
	lanLat     = 100 * time.Microsecond
	metroLat   = 1 * time.Millisecond  // between Dutch sites
	transatLat = 40 * time.Millisecond // Seattle <-> Amsterdam one way
)

// buildDutchSites creates the Fig. 9/12 resources shared by both testbeds:
// the three DAS-4 clusters and the LGM, wired by lightpaths. It returns the
// frontends' names for linking the client in.
func buildDutchSites(n *vnet.Network) (vu, uva, tud *vnet.Cluster, err error) {
	vu, err = n.AddCluster(vnet.ClusterSpec{
		Name: "das4-vu", Site: "vu", Nodes: 8,
		FrontendPolicy: vnet.SSHOnly, NodePolicy: vnet.OutboundOnly,
		InternalLatency: lanLat, InternalBandwidth: tenG,
	})
	if err != nil {
		return
	}
	uva, err = n.AddCluster(vnet.ClusterSpec{
		Name: "das4-uva", Site: "uva", Nodes: 1,
		FrontendPolicy: vnet.SSHOnly, NodePolicy: vnet.OutboundOnly,
		InternalLatency: lanLat, InternalBandwidth: tenG,
	})
	if err != nil {
		return
	}
	tud, err = n.AddCluster(vnet.ClusterSpec{
		Name: "das4-tud", Site: "tud", Nodes: 2,
		FrontendPolicy: vnet.SSHOnly, NodePolicy: vnet.OutboundOnly,
		InternalLatency: lanLat, InternalBandwidth: tenG,
	})
	if err != nil {
		return
	}
	if _, err = n.AddHost("lgm", "leiden", vnet.SSHOnly); err != nil {
		return
	}
	// 10G STARplane between DAS-4 sites; 1G lightpath to the LGM (Fig. 12).
	links := []struct {
		a, b string
		lat  time.Duration
		bw   float64
	}{
		{vu.Frontend, uva.Frontend, metroLat, tenG},
		{vu.Frontend, tud.Frontend, metroLat, tenG},
		{uva.Frontend, tud.Frontend, metroLat, tenG},
		{vu.Frontend, "lgm", metroLat, gbE},
	}
	for _, l := range links {
		if err = n.AddLink(l.a, l.b, l.lat, l.bw); err != nil {
			return
		}
	}
	return vu, uva, tud, nil
}

// registerDutchResources adds the four Dutch resources to the deployment.
func (tb *Testbed) registerDutchResources(vu, uva, tud *vnet.Cluster) error {
	resources := []deploy.Resource{
		{Name: "das4-vu", Middleware: "sge", Frontend: vu.Frontend, Nodes: vu.NodeName, CPU: das4Node()},
		{Name: "das4-uva", Middleware: "sge", Frontend: uva.Frontend, Nodes: uva.NodeName, CPU: das4Node()},
		{Name: "das4-tud", Middleware: "sge", Frontend: tud.Frontend, Nodes: tud.NodeName, CPU: das4Node(), GPU: gtx480()},
		{Name: "lgm", Middleware: "ssh", Frontend: "lgm", CPU: das4Node(), GPU: teslaC2050()},
	}
	for _, r := range resources {
		if err := tb.Deployment.AddResource(r); err != nil {
			return err
		}
	}
	tb.VU, tb.UvA, tb.TUD, tb.LGM = "das4-vu", "das4-uva", "das4-tud", "lgm"
	return nil
}

// NewLabTestbed builds the Fig. 12 setup: a quad-core desktop with a
// GeForce 9600GT at the VU on 1 GbE, the DAS-4 sites and the LGM.
func NewLabTestbed() (*Testbed, error) {
	n := vnet.New()
	rec := trace.New()
	n.SetRecorder(rec)
	if _, err := n.AddHost("desktop", "vu", vnet.Open); err != nil {
		return nil, err
	}
	vu, uva, tud, err := buildDutchSites(n)
	if err != nil {
		return nil, err
	}
	if err := n.AddLink("desktop", vu.Frontend, lanLat, gbE); err != nil {
		return nil, err
	}

	dep, err := deploy.New(n, "desktop")
	if err != nil {
		return nil, err
	}
	tb := &Testbed{Net: n, Recorder: rec, Deployment: dep, Client: "desktop"}
	if err := dep.AddResource(deploy.Resource{
		Name: "desktop", Middleware: "local", Frontend: "desktop",
		CPU: desktopCPU(), GPU: geforce9600GT(),
	}); err != nil {
		return nil, err
	}
	if err := tb.registerDutchResources(vu, uva, tud); err != nil {
		return nil, err
	}
	d, err := NewDaemon(dep, "amuse")
	if err != nil {
		return nil, err
	}
	tb.Daemon = d
	return tb, nil
}

// NewSC11Testbed builds the Fig. 9 setup: the laptop at the SC11 booth in
// Seattle behind the conference NAT, a transatlantic 1G lightpath to
// Amsterdam, and the Dutch resources. The render/visualization clusters of
// the demo are added as hosts for topology fidelity but host no workers.
func NewSC11Testbed() (*Testbed, error) {
	n := vnet.New()
	rec := trace.New()
	n.SetRecorder(rec)
	// The laptop sits behind the exhibition-floor NAT: outbound only —
	// exactly the situation SmartSockets' reverse/routed setup exists for.
	if _, err := n.AddHost("laptop", "seattle", vnet.OutboundOnly); err != nil {
		return nil, err
	}
	vu, uva, tud, err := buildDutchSites(n)
	if err != nil {
		return nil, err
	}
	// Transatlantic 1G lightpath lands at the VU.
	if err := n.AddLink("laptop", vu.Frontend, transatLat, gbE); err != nil {
		return nil, err
	}
	// SARA render cluster + tiled display head node (Fig. 9, right).
	if _, err := n.AddHost("rvs-sara", "amsterdam", vnet.SSHOnly); err != nil {
		return nil, err
	}
	if err := n.AddLink("rvs-sara", vu.Frontend, metroLat, tenG); err != nil {
		return nil, err
	}

	dep, err := deploy.New(n, "laptop")
	if err != nil {
		return nil, err
	}
	tb := &Testbed{Net: n, Recorder: rec, Deployment: dep, Client: "laptop"}
	if err := dep.AddResource(deploy.Resource{
		Name: "laptop", Middleware: "local", Frontend: "laptop", CPU: laptopCPU(),
	}); err != nil {
		return nil, err
	}
	if err := tb.registerDutchResources(vu, uva, tud); err != nil {
		return nil, err
	}
	d, err := NewDaemon(dep, "amuse")
	if err != nil {
		return nil, err
	}
	tb.Daemon = d
	return tb, nil
}

// NewDSLTestbed builds the home-user topology the direct data plane
// targets: the coupler on a home machine whose DSL-class uplink is the
// slowest link by orders of magnitude, and two well-connected remote
// sites joined by a fast research network. Any state hairpinned through
// the coupler pays the DSL serialization twice per channel; the direct
// worker-to-worker path pays the fast inter-site link once.
func NewDSLTestbed() (*Testbed, error) {
	const dsl = 1.25e6 // ~10 Mbit/s uplink
	n := vnet.New()
	rec := trace.New()
	n.SetRecorder(rec)
	if _, err := n.AddHost("home", "home", vnet.Open); err != nil {
		return nil, err
	}
	for _, site := range []string{"site-a", "site-b"} {
		if _, err := n.AddHost(site, site, vnet.Open); err != nil {
			return nil, err
		}
		if err := n.AddLink("home", site, 20*time.Millisecond, dsl); err != nil {
			return nil, err
		}
	}
	if err := n.AddLink("site-a", "site-b", 2*time.Millisecond, tenG); err != nil {
		return nil, err
	}

	dep, err := deploy.New(n, "home")
	if err != nil {
		return nil, err
	}
	tb := &Testbed{Net: n, Recorder: rec, Deployment: dep, Client: "home",
		SiteA: "site-a", SiteB: "site-b"}
	resources := []deploy.Resource{
		{Name: "home", Middleware: "local", Frontend: "home", CPU: laptopCPU()},
		{Name: "site-a", Middleware: "ssh", Frontend: "site-a", CPU: das4Node(), GPU: teslaC2050()},
		{Name: "site-b", Middleware: "ssh", Frontend: "site-b", CPU: das4Node(), GPU: gtx480()},
	}
	for _, r := range resources {
		if err := dep.AddResource(r); err != nil {
			return nil, err
		}
	}
	d, err := NewDaemon(dep, "amuse")
	if err != nil {
		return nil, err
	}
	tb.Daemon = d
	return tb, nil
}

// NewElasticTestbed builds the elastic-gang topology: a desktop client
// and two 4-node SGE clusters. "site-mixed" is heterogeneous — its last
// node runs at a quarter of the others' speed (a straggler batch node,
// the kind a uniform slab decomposition cannot see until it measures) —
// while "site-spare" is uniform and idle, the natural migration target.
func NewElasticTestbed() (*Testbed, error) {
	n := vnet.New()
	rec := trace.New()
	n.SetRecorder(rec)
	if _, err := n.AddHost("desktop", "home", vnet.Open); err != nil {
		return nil, err
	}
	mixed, err := n.AddCluster(vnet.ClusterSpec{
		Name: "site-mixed", Site: "mixed", Nodes: 4,
		FrontendPolicy: vnet.SSHOnly, NodePolicy: vnet.OutboundOnly,
		InternalLatency: lanLat, InternalBandwidth: tenG,
	})
	if err != nil {
		return nil, err
	}
	spare, err := n.AddCluster(vnet.ClusterSpec{
		Name: "site-spare", Site: "spare", Nodes: 4,
		FrontendPolicy: vnet.SSHOnly, NodePolicy: vnet.OutboundOnly,
		InternalLatency: lanLat, InternalBandwidth: tenG,
	})
	if err != nil {
		return nil, err
	}
	links := []struct {
		a, b string
	}{
		{"desktop", mixed.Frontend},
		{"desktop", spare.Frontend},
		{mixed.Frontend, spare.Frontend},
	}
	for _, l := range links {
		if err := n.AddLink(l.a, l.b, metroLat, tenG); err != nil {
			return nil, err
		}
	}

	dep, err := deploy.New(n, "desktop")
	if err != nil {
		return nil, err
	}
	tb := &Testbed{Net: n, Recorder: rec, Deployment: dep, Client: "desktop",
		Mixed: "site-mixed", Spare: "site-spare"}
	resources := []deploy.Resource{
		{Name: "desktop", Middleware: "local", Frontend: "desktop", CPU: desktopCPU()},
		{Name: "site-mixed", Middleware: "sge", Frontend: mixed.Frontend, Nodes: mixed.NodeName, CPU: das4Node()},
		{Name: "site-spare", Middleware: "sge", Frontend: spare.Frontend, Nodes: spare.NodeName, CPU: das4Node()},
	}
	for _, r := range resources {
		if err := dep.AddResource(r); err != nil {
			return nil, err
		}
	}
	// The straggler: one mixed node at quarter speed. Whichever rank the
	// scheduler lands there computes its slab 4x slower than its peers.
	if err := dep.SetNodeSpeed("site-mixed", mixed.NodeName[3], 0.25); err != nil {
		return nil, err
	}
	d, err := NewDaemon(dep, "amuse")
	if err != nil {
		return nil, err
	}
	tb.Daemon = d
	return tb, nil
}

// Close shuts the daemon and deployment down.
func (tb *Testbed) Close() {
	if tb.Daemon != nil {
		tb.Daemon.Close()
	}
	tb.Deployment.Stop()
}

// String summarizes the testbed.
func (tb *Testbed) String() string {
	return fmt.Sprintf("testbed client=%s resources=%v", tb.Client, tb.Deployment.Resources())
}
