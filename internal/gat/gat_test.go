package gat

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"jungle/internal/trace"
	"jungle/internal/vnet"
)

// testRig builds a network with a desktop submit host, an SGE cluster and
// an SSH-reachable standalone machine.
type testRig struct {
	net     *vnet.Network
	fs      *FS
	catalog *Catalog
	broker  *Broker
	cluster *vnet.Cluster
}

func newRig(t *testing.T, nodes int) *testRig {
	t.Helper()
	n := vnet.New()
	if _, err := n.AddHost("desktop", "vu", vnet.Open); err != nil {
		t.Fatal(err)
	}
	c, err := n.AddCluster(vnet.ClusterSpec{
		Name: "das4", Site: "uva", Nodes: nodes,
		FrontendPolicy: vnet.SSHOnly, NodePolicy: vnet.OutboundOnly,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n.AddHost("lonely", "leiden", vnet.SSHOnly); err != nil {
		t.Fatal(err)
	}
	if err := n.AddLink("desktop", c.Frontend, time.Millisecond, 1.25e8); err != nil {
		t.Fatal(err)
	}
	if err := n.AddLink("desktop", "lonely", 2*time.Millisecond, 1.25e8); err != nil {
		t.Fatal(err)
	}
	fs := NewFS(n)
	cat := NewCatalog()
	b := NewBroker(n, fs, cat, "desktop")
	b.RegisterCluster(c.Frontend, c.NodeName)
	return &testRig{net: n, fs: fs, catalog: cat, broker: b, cluster: c}
}

func TestFSWriteReadCopy(t *testing.T) {
	r := newRig(t, 2)
	r.fs.Write("desktop", "/input.dat", []byte("hello"))
	cost, err := r.fs.Copy("desktop", "/input.dat", r.cluster.Node(0), "/tmp/input.dat")
	if err != nil {
		t.Fatal(err)
	}
	if cost <= 0 {
		t.Fatal("cross-host copy cost zero virtual time")
	}
	got, err := r.fs.Read(r.cluster.Node(0), "/tmp/input.dat")
	if err != nil || string(got) != "hello" {
		t.Fatalf("read: %q, %v", got, err)
	}
	if _, err := r.fs.Read("desktop", "/nope"); !errors.Is(err, ErrNoFile) {
		t.Fatalf("err = %v", err)
	}
	if _, err := r.fs.Copy("desktop", "/nope", "lonely", "/x"); err == nil {
		t.Fatal("copied missing file")
	}
}

func TestFileStagingRecordsTraffic(t *testing.T) {
	r := newRig(t, 2)
	rec := trace.New()
	r.net.SetRecorder(rec)
	r.fs.Write("desktop", "/a", make([]byte, 5000))
	if _, err := r.fs.Copy("desktop", "/a", r.cluster.Node(0), "/a"); err != nil {
		t.Fatal(err)
	}
	if b := rec.Bytes("desktop", r.cluster.Node(0), "file"); b != 5000 {
		t.Fatalf("file traffic = %d", b)
	}
}

func TestLocalJob(t *testing.T) {
	r := newRig(t, 2)
	var ran atomic.Bool
	r.catalog.Register("hello", func(ctx *Context) error {
		if len(ctx.Hosts) != 1 || ctx.Hosts[0] != "desktop" {
			t.Errorf("hosts = %v", ctx.Hosts)
		}
		ran.Store(true)
		return nil
	})
	j, err := r.broker.Submit(JobDescription{Executable: "hello"}, "local://")
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Wait(); err != nil {
		t.Fatal(err)
	}
	if !ran.Load() || j.State() != Stopped {
		t.Fatalf("state = %v", j.State())
	}
}

func TestUnknownExecutable(t *testing.T) {
	r := newRig(t, 1)
	if _, err := r.broker.Submit(JobDescription{Executable: "ghost"}, "local://"); !errors.Is(err, ErrUnknownExecutable) {
		t.Fatalf("err = %v", err)
	}
}

func TestSSHJobOnStandalone(t *testing.T) {
	r := newRig(t, 1)
	r.catalog.Register("probe", func(ctx *Context) error {
		if ctx.Hosts[0] != "lonely" {
			t.Errorf("host = %v", ctx.Hosts)
		}
		return nil
	})
	j, err := r.broker.Submit(JobDescription{Executable: "probe"}, "ssh://lonely")
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Wait(); err != nil {
		t.Fatal(err)
	}
}

func TestSSHRejectsMultiNode(t *testing.T) {
	r := newRig(t, 1)
	r.catalog.Register("x", func(*Context) error { return nil })
	if _, err := r.broker.Submit(JobDescription{Executable: "x", Nodes: 4}, "ssh://lonely"); err == nil {
		t.Fatal("ssh accepted multi-node job")
	}
}

func TestSGEMultiNodeJob(t *testing.T) {
	r := newRig(t, 8)
	r.catalog.Register("mpi", func(ctx *Context) error {
		if len(ctx.Hosts) != 4 {
			t.Errorf("allocated %d nodes", len(ctx.Hosts))
		}
		return nil
	})
	j, err := r.broker.Submit(JobDescription{Executable: "mpi", Nodes: 4},
		"sge://"+r.cluster.Frontend)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Wait(); err != nil {
		t.Fatal(err)
	}
	if len(j.Hosts()) != 4 {
		t.Fatalf("job hosts = %v", j.Hosts())
	}
	// Every node came back: a job asking for the whole cluster runs.
	r.catalog.Register("all", func(*Context) error { return nil })
	j, err = r.broker.Submit(JobDescription{Executable: "all", Nodes: 8},
		"sge://"+r.cluster.Frontend)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Wait(); err != nil || len(j.Hosts()) != 8 {
		t.Fatalf("nodes not released: hosts %v, err %v", j.Hosts(), err)
	}
}

func TestQueueingFIFO(t *testing.T) {
	r := newRig(t, 2)
	release := make(chan struct{})
	var order []int
	var mu sync.Mutex
	mark := func(id int) {
		mu.Lock()
		order = append(order, id)
		mu.Unlock()
	}
	r.catalog.Register("hold", func(ctx *Context) error {
		mark(1)
		<-release
		return nil
	})
	r.catalog.Register("next", func(ctx *Context) error {
		mark(2)
		return nil
	})
	j1, err := r.broker.Submit(JobDescription{Executable: "hold", Nodes: 2},
		"sge://"+r.cluster.Frontend)
	if err != nil {
		t.Fatal(err)
	}
	// Wait until j1 actually runs.
	deadline := time.Now().Add(2 * time.Second)
	for j1.State() != Running && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	j2, err := r.broker.Submit(JobDescription{Executable: "next", Nodes: 1},
		"sge://"+r.cluster.Frontend)
	if err != nil {
		t.Fatal(err)
	}
	// j2 must stay queued while j1 holds both nodes.
	time.Sleep(20 * time.Millisecond)
	if j2.State() != Scheduled {
		t.Fatalf("queued job state = %v", j2.State())
	}
	close(release)
	if err := j1.Wait(); err != nil {
		t.Fatal(err)
	}
	if err := j2.Wait(); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(order) != 2 || order[0] != 1 || order[1] != 2 {
		t.Fatalf("order = %v", order)
	}
}

func TestTooManyNodes(t *testing.T) {
	r := newRig(t, 2)
	r.catalog.Register("x", func(*Context) error { return nil })
	if _, err := r.broker.Submit(JobDescription{Executable: "x", Nodes: 5},
		"sge://"+r.cluster.Frontend); !errors.Is(err, ErrTooManyNodes) {
		t.Fatalf("err = %v", err)
	}
}

func TestCancelQueuedJob(t *testing.T) {
	r := newRig(t, 1)
	release := make(chan struct{})
	r.catalog.Register("hold", func(ctx *Context) error { <-release; return nil })
	r.catalog.Register("x", func(*Context) error { return nil })
	j1, _ := r.broker.Submit(JobDescription{Executable: "hold"}, "sge://"+r.cluster.Frontend)
	deadline := time.Now().Add(2 * time.Second)
	for j1.State() != Running && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	j2, err := r.broker.Submit(JobDescription{Executable: "x"}, "sge://"+r.cluster.Frontend)
	if err != nil {
		t.Fatal(err)
	}
	j2.Cancel()
	if err := j2.Wait(); !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v", err)
	}
	close(release)
	if err := j1.Wait(); err != nil {
		t.Fatal(err)
	}
}

func TestCancelRunningJob(t *testing.T) {
	r := newRig(t, 1)
	started := make(chan struct{})
	r.catalog.Register("loop", func(ctx *Context) error {
		close(started)
		<-ctx.Cancel
		return errors.New("interrupted") // error is superseded by Canceled
	})
	j, err := r.broker.Submit(JobDescription{Executable: "loop"}, "local://")
	if err != nil {
		t.Fatal(err)
	}
	<-started
	if j.State() != Running {
		t.Fatalf("state = %v", j.State())
	}
	j.Cancel()
	if err := j.Wait(); !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v", err)
	}
	if j.State() != Canceled {
		t.Fatalf("state = %v", j.State())
	}
}

func TestAutoAdapterSelection(t *testing.T) {
	// Bare host URI: the broker must find a working adapter. For the SGE
	// frontend the local adapter fails (wrong host), ssh works.
	r := newRig(t, 2)
	r.catalog.Register("x", func(ctx *Context) error { return nil })
	j, err := r.broker.Submit(JobDescription{Executable: "x"}, r.cluster.Frontend)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Wait(); err != nil {
		t.Fatal(err)
	}
	if j.Adapter != "ssh" {
		t.Fatalf("adapter = %q, want ssh", j.Adapter)
	}
	// For the submit host itself, local wins.
	j2, err := r.broker.Submit(JobDescription{Executable: "x"}, "desktop")
	if err != nil {
		t.Fatal(err)
	}
	if j2.Adapter != "local" {
		t.Fatalf("adapter = %q, want local", j2.Adapter)
	}
	j2.Wait()
}

func TestAutoSelectionFailsCleanly(t *testing.T) {
	r := newRig(t, 1)
	r.catalog.Register("x", func(*Context) error { return nil })
	if _, err := r.broker.Submit(JobDescription{Executable: "x"}, "no-such-host"); !errors.Is(err, ErrNoAdapter) {
		t.Fatalf("err = %v", err)
	}
}

func TestUnknownScheme(t *testing.T) {
	r := newRig(t, 1)
	r.catalog.Register("x", func(*Context) error { return nil })
	if _, err := r.broker.Submit(JobDescription{Executable: "x"}, "globus://x"); !errors.Is(err, ErrUnknownScheme) {
		t.Fatalf("err = %v", err)
	}
}

func TestStageInAndOut(t *testing.T) {
	r := newRig(t, 2)
	r.fs.Write("desktop", "/in.dat", []byte("data"))
	r.catalog.Register("transform", func(ctx *Context) error {
		in, err := ctx.FS.Read(ctx.Hosts[0], "/work/in.dat")
		if err != nil {
			return err
		}
		ctx.FS.Write(ctx.Hosts[0], "/work/out.dat", append(in, '!'))
		return nil
	})
	j, err := r.broker.Submit(JobDescription{
		Executable: "transform",
		StageIn:    []FilePair{{"/in.dat", "/work/in.dat"}},
		StageOut:   []FilePair{{"/work/out.dat", "/results/out.dat"}},
	}, "sge://"+r.cluster.Frontend)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Wait(); err != nil {
		t.Fatal(err)
	}
	out, err := r.fs.Read("desktop", "/results/out.dat")
	if err != nil || string(out) != "data!" {
		t.Fatalf("staged out: %q, %v", out, err)
	}
}

func TestFailedProcessMarksJobFailed(t *testing.T) {
	r := newRig(t, 1)
	boom := errors.New("boom")
	r.catalog.Register("bad", func(*Context) error { return boom })
	j, _ := r.broker.Submit(JobDescription{Executable: "bad"}, "local://")
	if err := j.Wait(); !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if j.State() != Failed {
		t.Fatalf("state = %v", j.State())
	}
}

func TestJobStateString(t *testing.T) {
	for s := Unsubmitted; s <= Canceled; s++ {
		if s.String() == fmt.Sprintf("JobState(%d)", int32(s)) {
			t.Fatalf("missing name for state %d", s)
		}
	}
}
