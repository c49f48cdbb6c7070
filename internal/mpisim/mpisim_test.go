package mpisim

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"jungle/internal/trace"
	"jungle/internal/vnet"
	"jungle/internal/vtime"
)

// clusterWorld builds an n-rank world over an n-node virtual cluster.
func clusterWorld(t *testing.T, n int) (*vnet.Network, *World) {
	t.Helper()
	net := vnet.New()
	c, err := net.AddCluster(vnet.ClusterSpec{
		Name: "test", Site: "site", Nodes: n,
		FrontendPolicy: vnet.Open, NodePolicy: vnet.Open,
	})
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewWorld(net, c.NodeName)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.Close)
	return net, w
}

func TestWorldSizeAndHosts(t *testing.T) {
	_, w := clusterWorld(t, 4)
	if w.Size() != 4 {
		t.Fatalf("size = %d, want 4", w.Size())
	}
	hosts := w.Hosts()
	if len(hosts) != 4 || hosts[0] != "test.node00" {
		t.Fatalf("hosts = %v", hosts)
	}
}

func TestPointToPoint(t *testing.T) {
	_, w := clusterWorld(t, 2)
	err := w.Run(func(r *Rank) error {
		if r.ID() == 0 {
			return r.Send(1, []byte("hello"))
		}
		data, err := r.Recv(0)
		if err != nil {
			return err
		}
		if string(data) != "hello" {
			t.Errorf("rank 1 got %q", data)
		}
		if r.Now() <= 0 {
			t.Errorf("receive did not advance the clock: %v", r.Now())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSendToSelfRejected(t *testing.T) {
	_, w := clusterWorld(t, 2)
	err := w.Run(func(r *Rank) error {
		if r.ID() == 0 {
			if err := r.Send(0, nil); err == nil {
				t.Error("send to self succeeded")
			}
			if err := r.Send(7, nil); err == nil {
				t.Error("send to out-of-range rank succeeded")
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAllreduceSum(t *testing.T) {
	_, w := clusterWorld(t, 4)
	err := w.Run(func(r *Rank) error {
		x := []float64{float64(r.ID()), 1}
		sum, err := r.AllreduceSum(x)
		if err != nil {
			return err
		}
		if sum[0] != 6 || sum[1] != 4 { // 0+1+2+3, 1*4
			t.Errorf("rank %d sum = %v", r.ID(), sum)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAllreduceMax(t *testing.T) {
	_, w := clusterWorld(t, 3)
	err := w.Run(func(r *Rank) error {
		m, err := AllreduceMax(r, []float64{float64(-r.ID()), float64(r.ID())})
		if err != nil {
			return err
		}
		if m[0] != 0 || m[1] != 2 {
			t.Errorf("rank %d max = %v", r.ID(), m)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAllgatherUnequalBlocks(t *testing.T) {
	_, w := clusterWorld(t, 3)
	// 7 elements over 3 ranks: blocks of 3, 2, 2.
	err := w.Run(func(r *Rank) error {
		lo, hi := r.Slab(7)
		block := make([]float64, 0, hi-lo)
		for i := lo; i < hi; i++ {
			block = append(block, float64(i)*10)
		}
		all, err := r.AllgatherFloats(block)
		if err != nil {
			return err
		}
		if len(all) != 7 {
			t.Errorf("rank %d gathered %d elements", r.ID(), len(all))
			return nil
		}
		for i, v := range all {
			if v != float64(i)*10 {
				t.Errorf("rank %d element %d = %v", r.ID(), i, v)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestTrafficRecordedAsMPI(t *testing.T) {
	net, w := clusterWorld(t, 2)
	rec := trace.New()
	net.SetRecorder(rec)
	err := w.Run(func(r *Rank) error {
		if r.ID() == 0 {
			return r.Send(1, make([]byte, 1000))
		}
		_, err := r.Recv(0)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if b := rec.Bytes("test.node00", "test.node01", "mpi"); b < 1000 {
		t.Fatalf("mpi traffic %d bytes, want >= 1000", b)
	}
}

func TestTransferTimeScalesWithSize(t *testing.T) {
	_, w := clusterWorld(t, 2)
	var small, large time.Duration
	err := w.Run(func(r *Rank) error {
		if r.ID() == 0 {
			if err := r.Send(1, make([]byte, 100)); err != nil {
				return err
			}
			return r.Send(1, make([]byte, 10_000_000))
		}
		if _, err := r.Recv(0); err != nil {
			return err
		}
		small = r.Now()
		if _, err := r.Recv(0); err != nil {
			return err
		}
		large = r.Now()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if large <= small {
		t.Fatalf("10MB arrival %v not after 100B arrival %v", large, small)
	}
}

func TestComputeFlopsAdvancesClock(t *testing.T) {
	_, w := clusterWorld(t, 1)
	dev := &vtime.Device{Name: "cpu", Kind: vtime.CPU, Gflops: 1, Cores: 1}
	r := w.Rank(0)
	r.ComputeFlops(dev, 2e9, 1)
	if got := r.Now(); got < 2*time.Second {
		t.Fatalf("2 Gflop on 1 Gflop/s device took %v, want >= 2s", got)
	}
}

func TestMaxTimeAndSyncTo(t *testing.T) {
	_, w := clusterWorld(t, 3)
	w.Rank(1).Compute(5 * time.Second)
	if got := w.MaxTime(); got != 5*time.Second {
		t.Fatalf("MaxTime = %v", got)
	}
	w.SyncTo(7 * time.Second)
	for i := 0; i < 3; i++ {
		if got := w.Rank(i).Now(); got != 7*time.Second {
			t.Fatalf("rank %d at %v after SyncTo", i, got)
		}
	}
	// SyncTo never moves clocks backwards.
	w.SyncTo(time.Second)
	if got := w.Rank(0).Now(); got != 7*time.Second {
		t.Fatalf("SyncTo moved clock backwards to %v", got)
	}
}

func TestMultipleWorldsCoexist(t *testing.T) {
	net := vnet.New()
	c, err := net.AddCluster(vnet.ClusterSpec{
		Name: "shared", Site: "s", Nodes: 2,
		FrontendPolicy: vnet.Open, NodePolicy: vnet.Open,
	})
	if err != nil {
		t.Fatal(err)
	}
	w1, err := NewWorld(net, c.NodeName)
	if err != nil {
		t.Fatal(err)
	}
	defer w1.Close()
	w2, err := NewWorld(net, c.NodeName) // same hosts, distinct port range
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	for _, w := range []*World{w1, w2} {
		if err := w.Run(func(r *Rank) error { _, err := r.AllreduceSum([]float64{1}); return err }); err != nil {
			t.Fatal(err)
		}
	}
}

func TestMultipleRanksPerHost(t *testing.T) {
	net := vnet.New()
	if _, err := net.AddHost("big", "s", vnet.Open); err != nil {
		t.Fatal(err)
	}
	w, err := NewWorld(net, []string{"big", "big", "big", "big"})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	err = w.Run(func(r *Rank) error {
		sum, err := r.AllreduceSum([]float64{1})
		if err != nil {
			return err
		}
		if sum[0] != 4 {
			t.Errorf("rank %d sum = %v", r.ID(), sum[0])
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestSlabProperty checks the slab decomposition invariants: blocks are
// contiguous, non-overlapping, cover [0,n), and balanced within one element.
func TestSlabProperty(t *testing.T) {
	f := func(nRaw uint16, sizeRaw uint8) bool {
		n := int(nRaw)
		size := int(sizeRaw)%16 + 1
		prev := 0
		minLen, maxLen := n+1, -1
		for rank := 0; rank < size; rank++ {
			lo, hi := Slab(n, rank, size)
			if lo != prev || hi < lo {
				return false
			}
			prev = hi
			if l := hi - lo; l < minLen {
				minLen = l
			}
			if l := hi - lo; l > maxLen {
				maxLen = l
			}
		}
		return prev == n && maxLen-minLen <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestAllreduceDeterministic verifies the fixed summation order: two
// identical runs produce bitwise-identical results.
func TestAllreduceDeterministic(t *testing.T) {
	run := func() []float64 {
		_, w := clusterWorld(t, 4)
		var out []float64
		err := w.Run(func(r *Rank) error {
			x := []float64{math.Pi * float64(r.ID()+1), 1e-17, 1e17}
			s, err := r.AllreduceSum(x)
			if err != nil {
				return err
			}
			if r.ID() == 0 {
				out = s
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			t.Fatalf("element %d differs: %x vs %x", i, a[i], b[i])
		}
	}
}

func TestFloatsRoundTrip(t *testing.T) {
	f := func(x []float64) bool {
		y, err := appendFloats(nil, floatsToBytes(x))
		if err != nil || len(y) != len(x) {
			return false
		}
		for i := range x {
			if math.Float64bits(x[i]) != math.Float64bits(y[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := appendFloats(nil, make([]byte, 7)); err == nil {
		t.Fatal("odd-length payload decoded")
	}
}
