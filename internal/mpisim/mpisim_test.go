package mpisim

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"jungle/internal/trace"
	"jungle/internal/vnet"
	"jungle/internal/vtime"
	"jungle/internal/wire"
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
	if len(w.gangs) != 4 {
		t.Fatalf("size = %d, want 4", len(w.gangs))
	}
	// Rank i's links leave from host i.
	for i, g := range w.gangs {
		if g.ID() != i || g.Size() != 4 {
			t.Fatalf("rank %d is %d of %d", i, g.ID(), g.Size())
		}
		for p, l := range g.links {
			if p == i {
				continue
			}
			got, _, _ := strings.Cut(l.(connLink).conn.String(), "->")
			want := fmt.Sprintf("test.node%02d", i)
			if got != want {
				t.Fatalf("rank %d's link to %d leaves from %s, want %s", i, p, got, want)
			}
		}
	}
}

func TestPointToPoint(t *testing.T) {
	_, w := clusterWorld(t, 2)
	err := w.Run(func(r *Gang) error {
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
		if r.Clock().Now() <= 0 {
			t.Errorf("receive did not advance the clock: %v", r.Clock().Now())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSendToSelfRejected(t *testing.T) {
	_, w := clusterWorld(t, 2)
	err := w.Run(func(r *Gang) error {
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
	err := w.Run(func(r *Gang) error {
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
	err := w.Run(func(r *Gang) error {
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
	err := w.Run(func(r *Gang) error {
		lo, hi := Slab(7, r.ID(), r.Size())
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
	err := w.Run(func(r *Gang) error {
		if r.ID() == 0 {
			return r.Send(1, make([]byte, 1000))
		}
		_, err := r.Recv(0)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	b := 0
	for _, row := range rec.TrafficTable() {
		if row.From == "test.node00" && row.To == "test.node01" && row.Class == "mpi" {
			b = row.Bytes
		}
	}
	if b < 1000 {
		t.Fatalf("mpi traffic %d bytes, want >= 1000", b)
	}
}

func TestTransferTimeScalesWithSize(t *testing.T) {
	_, w := clusterWorld(t, 2)
	var small, large time.Duration
	err := w.Run(func(r *Gang) error {
		if r.ID() == 0 {
			if err := r.Send(1, make([]byte, 100)); err != nil {
				return err
			}
			return r.Send(1, make([]byte, 10_000_000))
		}
		if _, err := r.Recv(0); err != nil {
			return err
		}
		small = r.Clock().Now()
		if _, err := r.Recv(0); err != nil {
			return err
		}
		large = r.Clock().Now()
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
	r := w.gangs[0]
	ComputeFlops(r, dev, 2e9, 1)
	if got := r.Clock().Now(); got < 2*time.Second {
		t.Fatalf("2 Gflop on 1 Gflop/s device took %v, want >= 2s", got)
	}
}

func TestMaxTimeAndSyncTo(t *testing.T) {
	_, w := clusterWorld(t, 3)
	w.gangs[1].Clock().Advance(5 * time.Second)
	if got := w.MaxTime(); got != 5*time.Second {
		t.Fatalf("MaxTime = %v", got)
	}
	w.SyncTo(7 * time.Second)
	for i := 0; i < 3; i++ {
		if got := w.gangs[i].Clock().Now(); got != 7*time.Second {
			t.Fatalf("rank %d at %v after SyncTo", i, got)
		}
	}
	// SyncTo never moves clocks backwards.
	w.SyncTo(time.Second)
	if got := w.gangs[0].Clock().Now(); got != 7*time.Second {
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
		if err := w.Run(func(r *Gang) error { _, err := r.AllreduceSum([]float64{1}); return err }); err != nil {
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
	err = w.Run(func(r *Gang) error {
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

// TestWorldLinkDeathAbortsEveryRank: a world whose link dies aborts the job
// the way a gang does. Rank 3's link to rank 0 is closed before an
// allreduce: rank 0's gather from rank 3 fails, its break closes its links,
// and ranks 1 and 2, waiting on rank 0's broadcast, fail too instead of
// blocking forever.
func TestWorldLinkDeathAbortsEveryRank(t *testing.T) {
	_, w := clusterWorld(t, 4)
	w.gangs[3].links[0].Close()
	errs := make([]error, len(w.gangs))
	done := make(chan struct{})
	go func() {
		defer close(done)
		w.Run(func(r *Gang) error {
			_, errs[r.ID()] = AllreduceSum(r, []float64{1})
			return nil
		})
	}()
	select {
	case <-done:
	case <-time.After(3 * time.Second):
		t.Fatal("ranks still blocked 3 s after their world lost a link")
	}
	for i, err := range errs {
		if !errors.Is(err, ErrGangBroken) {
			t.Errorf("rank %d: %v, want ErrGangBroken", i, err)
		}
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
		err := w.Run(func(r *Gang) error {
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
		y, err := appendFloats(nil, wire.AppendFloats(nil, x))
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
