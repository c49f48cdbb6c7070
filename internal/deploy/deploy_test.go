package deploy

import (
	"errors"
	"strings"
	"testing"
	"time"

	"jungle/internal/gat"
	"jungle/internal/smartsockets"
	"jungle/internal/vnet"
	"jungle/internal/vtime"
)

// labNet builds a miniature of the paper's Fig. 12 network: a desktop at
// the VU plus two DAS-4-style clusters and a stand-alone GPU machine.
func labNet(t *testing.T) (*vnet.Network, *vnet.Cluster, *vnet.Cluster) {
	t.Helper()
	n := vnet.New()
	if _, err := n.AddHost("desktop", "vu", vnet.Open); err != nil {
		t.Fatal(err)
	}
	vu, err := n.AddCluster(vnet.ClusterSpec{Name: "das4-vu", Site: "vu", Nodes: 8,
		FrontendPolicy: vnet.SSHOnly, NodePolicy: vnet.OutboundOnly})
	if err != nil {
		t.Fatal(err)
	}
	tud, err := n.AddCluster(vnet.ClusterSpec{Name: "das4-tud", Site: "tud", Nodes: 2,
		FrontendPolicy: vnet.SSHOnly, NodePolicy: vnet.OutboundOnly})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n.AddHost("lgm", "leiden", vnet.SSHOnly); err != nil {
		t.Fatal(err)
	}
	for _, pair := range [][2]string{
		{"desktop", vu.Frontend}, {"desktop", tud.Frontend}, {"desktop", "lgm"},
		{vu.Frontend, tud.Frontend}, {vu.Frontend, "lgm"},
	} {
		if err := n.AddLink(pair[0], pair[1], time.Millisecond, 1.25e8); err != nil {
			t.Fatal(err)
		}
	}
	return n, vu, tud
}

func newDeployment(t *testing.T) (*Deployment, *vnet.Cluster, *vnet.Cluster) {
	t.Helper()
	n, vu, tud := labNet(t)
	d, err := New(n, "desktop")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Stop)
	return d, vu, tud
}

func TestAddResourceStartsHubs(t *testing.T) {
	d, vu, tud := newDeployment(t)
	if err := d.AddResource(Resource{
		Name: "das4-vu", Middleware: "sge", Frontend: vu.Frontend, Nodes: vu.NodeName,
		CPU: &vtime.Device{Name: "xeon", Kind: vtime.CPU, Gflops: 5, Cores: 8},
	}); err != nil {
		t.Fatal(err)
	}
	if err := d.AddResource(Resource{
		Name: "das4-tud", Middleware: "sge", Frontend: tud.Frontend, Nodes: tud.NodeName,
	}); err != nil {
		t.Fatal(err)
	}
	// Local hub + one hub per resource, all linked.
	if edges := d.Overlay().Edges(); len(edges) != 3 {
		t.Fatalf("edges = %v, want the 3 of a fully linked 3-hub overlay", edges)
	}
	if !d.Overlay().Connected() {
		t.Fatal("overlay not connected")
	}
	// The VU frontend shares the desktop's site: its SSHOnly policy admits
	// intra-site dials, so that hub link is direct. The TUD frontend is at
	// another site: its link must be an SSH tunnel — a red line of Fig. 10.
	types := map[string]smartsockets.EdgeType{}
	for _, e := range d.Overlay().Edges() {
		types[e.A+"|"+e.B] = e.Type
	}
	if got := types[vu.Frontend+"|desktop"]; got != smartsockets.EdgeDirect {
		t.Fatalf("vu edge = %v, want direct (same site)", got)
	}
	if got := types[tud.Frontend+"|desktop"]; got != smartsockets.EdgeSSH {
		t.Fatalf("tud edge = %v, want ssh-tunnel", got)
	}
}

func TestResourceValidation(t *testing.T) {
	d, vu, _ := newDeployment(t)
	if err := d.AddResource(Resource{Name: "x", Middleware: "condor", Frontend: vu.Frontend}); !errors.Is(err, ErrBadMiddleware) {
		t.Fatalf("err = %v", err)
	}
	if err := d.AddResource(Resource{Name: "x", Middleware: "ssh", Frontend: "ghost"}); !errors.Is(err, vnet.ErrUnknownHost) {
		t.Fatalf("err = %v", err)
	}
	ok := Resource{Name: "vu", Middleware: "sge", Frontend: vu.Frontend, Nodes: vu.NodeName}
	if err := d.AddResource(ok); err != nil {
		t.Fatal(err)
	}
	if err := d.AddResource(ok); !errors.Is(err, ErrDupResource) {
		t.Fatalf("err = %v", err)
	}
	if _, err := d.Resource("nope"); !errors.Is(err, ErrUnknownResource) {
		t.Fatalf("err = %v", err)
	}
}

func TestSubmitToClusterResource(t *testing.T) {
	d, vu, _ := newDeployment(t)
	if err := d.AddResource(Resource{
		Name: "das4-vu", Middleware: "sge", Frontend: vu.Frontend, Nodes: vu.NodeName,
	}); err != nil {
		t.Fatal(err)
	}
	got := make(chan int, 1)
	d.Catalog.Register("worker", func(ctx *gat.Context) error {
		got <- len(ctx.Hosts)
		return nil
	})
	j, err := d.Submit("das4-vu", gat.JobDescription{Executable: "worker", Nodes: 8})
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Wait(); err != nil {
		t.Fatal(err)
	}
	if n := <-got; n != 8 {
		t.Fatalf("allocated %d nodes", n)
	}
}

func TestSubmitToSSHResource(t *testing.T) {
	d, _, _ := newDeployment(t)
	if err := d.AddResource(Resource{
		Name: "lgm", Middleware: "ssh", Frontend: "lgm",
		GPU: &vtime.Device{Name: "c2050", Kind: vtime.GPU, Gflops: 300, Cores: 1},
	}); err != nil {
		t.Fatal(err)
	}
	r, err := d.Resource("lgm")
	if err != nil {
		t.Fatal(err)
	}
	if !r.HasGPU() || r.NodeCount() != 1 {
		t.Fatalf("resource = %+v", r)
	}
	d.Catalog.Register("gpu-worker", func(ctx *gat.Context) error { return nil })
	j, err := d.Submit("lgm", gat.JobDescription{Executable: "gpu-worker"})
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Wait(); err != nil {
		t.Fatal(err)
	}
}

func TestRenderStatus(t *testing.T) {
	d, vu, _ := newDeployment(t)
	if err := d.AddResource(Resource{
		Name: "das4-vu", Middleware: "sge", Frontend: vu.Frontend, Nodes: vu.NodeName,
		GPU: &vtime.Device{Name: "gtx480", Kind: vtime.GPU, Gflops: 350, Cores: 1},
	}); err != nil {
		t.Fatal(err)
	}
	d.Catalog.Register("w", func(*gat.Context) error { return nil })
	j, err := d.Submit("das4-vu", gat.JobDescription{Executable: "w"})
	if err != nil {
		t.Fatal(err)
	}
	j.Wait()
	s := d.RenderStatus()
	for _, want := range []string{"das4-vu", "sge", "+gpu:gtx480", "stopped", "SmartSockets overlay"} {
		if !strings.Contains(s, want) {
			t.Fatalf("status missing %q:\n%s", want, s)
		}
	}
}

func TestParseConfig(t *testing.T) {
	text := `
# lab resources
[resource das4-vu]
middleware = sge
frontend   = das4-vu.fe
nodes      = das4-vu.node00, das4-vu.node01
cpu        = xeon 5.0 8
gpu        = gtx480 350 40

[resource desktop]
middleware = local
frontend   = desktop
cpu        = core2 1.0 4
`
	rs, err := ParseConfig(text)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 2 {
		t.Fatalf("resources = %d", len(rs))
	}
	vu := rs[0]
	if vu.Name != "das4-vu" || vu.Middleware != "sge" || len(vu.Nodes) != 2 {
		t.Fatalf("vu = %+v", vu)
	}
	if vu.CPU == nil || vu.CPU.Cores != 8 || vu.CPU.Gflops != 5 {
		t.Fatalf("cpu = %+v", vu.CPU)
	}
	if vu.GPU == nil || vu.GPU.Kind != vtime.GPU || vu.GPU.LaunchLatency != 40*time.Microsecond {
		t.Fatalf("gpu = %+v", vu.GPU)
	}
	if rs[1].CPU.Cores != 4 {
		t.Fatalf("desktop cpu = %+v", rs[1].CPU)
	}
}

func TestParseConfigErrors(t *testing.T) {
	cases := []string{
		"middleware = sge",                        // key outside section
		"[cluster x]\nmiddleware=sge",             // wrong section kind
		"[resource x]\nmiddleware sge",            // missing =
		"[resource x]\nbogus = 1",                 // unknown key
		"[resource x]\ncpu = xeon",                // missing gflops
		"[resource x]\ncpu = xeon abc",            // bad gflops
		"[resource x]\nfrontend = y",              // missing middleware
		"[resource x]\nmiddleware = sge",          // missing frontend
		"[resource x\nmiddleware=sge\nfrontend=y", // unterminated section
	}
	for _, c := range cases {
		if _, err := ParseConfig(c); err == nil {
			t.Fatalf("config accepted: %q", c)
		}
	}
}

func TestConfigRoundTripIntoDeployment(t *testing.T) {
	d, vu, tud := newDeployment(t)
	text := `
[resource das4-vu]
middleware = sge
frontend   = ` + vu.Frontend + `
nodes      = ` + strings.Join(vu.NodeName, ", ") + `
cpu        = xeon 5.0 8

[resource das4-tud]
middleware = sge
frontend   = ` + tud.Frontend + `
nodes      = ` + strings.Join(tud.NodeName, ", ") + `
cpu        = xeon 5.0 8
gpu        = gtx480 350
`
	rs, err := ParseConfig(text)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rs {
		if err := d.AddResource(r); err != nil {
			t.Fatal(err)
		}
	}
	if got := d.Resources(); len(got) != 2 {
		t.Fatalf("resources = %v", got)
	}
	if !d.Overlay().Connected() {
		t.Fatal("overlay not connected after config load")
	}
}
