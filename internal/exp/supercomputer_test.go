package exp

import (
	"context"
	"testing"
	"time"

	"jungle/internal/core"
	"jungle/internal/deploy"
	"jungle/internal/vnet"
	"jungle/internal/vtime"
)

// addSupercomputer registers the §7 scale-up resource on a lab testbed: a
// 64-node PBS-managed machine at SARA ("using the infrastructure that we
// recently acquired access to ... including a supercomputer"), hanging off
// the VU frontend's lightpath hub. PBS is the one middleware the standard
// testbeds do not otherwise exercise. Returns the resource name.
func addSupercomputer(t *testing.T, tb *core.Testbed) string {
	t.Helper()
	const tenG = 1.25e9
	sc, err := tb.Net.AddCluster(vnet.ClusterSpec{
		Name: "huygens", Site: "sara", Nodes: 64,
		FrontendPolicy: vnet.SSHOnly, NodePolicy: vnet.OutboundOnly,
		InternalLatency: 100 * time.Microsecond, InternalBandwidth: tenG,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := tb.Net.AddLink(sc.Frontend, "das4-vu.fe", time.Millisecond, tenG); err != nil {
		t.Fatal(err)
	}
	if err := tb.Deployment.AddResource(deploy.Resource{
		Name: "huygens", Middleware: "pbs", Frontend: sc.Frontend, Nodes: sc.NodeName,
		CPU: &vtime.Device{Name: "power6", Kind: vtime.CPU, Gflops: 12, Cores: 16},
	}); err != nil {
		t.Fatal(err)
	}
	return "huygens"
}

// TestSupercomputerScaleUp is the §7 direction made concrete: adding the
// supercomputer to the jungle and moving the SPH worker onto 32 of its
// nodes must beat the 8-node DAS-4 VU placement at the same workload, and
// the PBS middleware path must work end to end.
func TestSupercomputerScaleUp(t *testing.T) {
	if testing.Short() {
		t.Skip("integration experiment")
	}
	w := DefaultWorkload().Scaled(0.1)

	run := func(usesSC bool) float64 {
		tb, err := core.NewLabTestbed()
		if err != nil {
			t.Fatal(err)
		}
		defer tb.Close()
		p := LabScenarios(tb)[3] // jungle
		if usesSC {
			p.Hydro = core.WorkerSpec{Resource: addSupercomputer(t, tb), Nodes: 32, Channel: core.ChannelIbis}
			p.Name = "jungle+supercomputer"
		}
		res, err := RunScenario(context.Background(), tb, w, p, 1)
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		// PBS queue delay shows up in worker startup, not per-iteration.
		if usesSC && res.Setup <= 0 {
			t.Fatal("no setup cost recorded for PBS submission")
		}
		return res.PerIteration.Seconds()
	}

	das4 := run(false)
	sc := run(true)
	if sc >= das4 {
		t.Fatalf("supercomputer hydro (%.3f s/iter) not faster than 8-node DAS-4 (%.3f s/iter)", sc, das4)
	}
}

// TestSelectPrefersSupercomputerForWideJobs: once registered, automatic
// selection must route a 32-node worker to the only resource that can host
// it.
func TestSelectPrefersSupercomputerForWideJobs(t *testing.T) {
	tb, err := core.NewLabTestbed()
	if err != nil {
		t.Fatal(err)
	}
	defer tb.Close()
	addSupercomputer(t, tb)
	r, err := core.SelectResource(tb.Deployment, core.WorkerSpec{Kind: core.KindHydro, Nodes: 32})
	if err != nil {
		t.Fatal(err)
	}
	if r != "huygens" {
		t.Fatalf("selected %q, want huygens", r)
	}
}
