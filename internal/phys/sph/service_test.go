package sph

import (
	"testing"
	"time"

	"jungle/internal/core/kernel"
	"jungle/internal/deploy"
	"jungle/internal/vnet"
	"jungle/internal/vtime"
)

// TestEnergiesChargeOnlyTheirOwnWork: an evolve is charged once, by the
// evolve. Two back-to-back energies calls after it cost the same virtual
// time on a serial worker and on a 4-host world. A world worker used to
// leave the evolve's flops in the counter, and its first energies charged
// them a second time.
func TestEnergiesChargeOnlyTheirOwnWork(t *testing.T) {
	net := vnet.New()
	c, err := net.AddCluster(vnet.ClusterSpec{Name: "das4", Site: "vu", Nodes: 4,
		FrontendPolicy: vnet.Open, NodePolicy: vnet.Open})
	if err != nil {
		t.Fatal(err)
	}
	res := &deploy.Resource{Name: "das4", Frontend: "das4",
		CPU: &vtime.Device{Name: "node", Kind: vtime.CPU, Gflops: 5, Cores: 8}}
	particles := kernel.Encode(kernel.ParticlesToPayload(gasSphere(t, 200)))
	var want time.Duration
	for _, hosts := range [][]string{c.NodeName[:1], c.NodeName} {
		svc, err := kernel.New(KindHydro, kernel.Config{Res: res, Net: net, Hosts: hosts})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(svc.Close)
		var at time.Duration
		call := func(method string, args []byte) time.Duration {
			t.Helper()
			_, done, err := svc.Dispatch(method, args, at)
			if err != nil {
				t.Fatal(err)
			}
			cost := done - at
			at = done
			return cost
		}
		call("set_particles", particles)
		call("evolve", kernel.Encode(kernel.EvolveArgs{T: 0.01}))
		first, second := call("energies", nil), call("energies", nil)
		if want == 0 {
			want = second
		}
		if first != want || second != want {
			t.Fatalf("%d hosts: energies cost %v then %v, want %v both times", len(hosts), first, second, want)
		}
	}
}
