package main

import (
	"fmt"
	"runtime"
	"runtime/metrics"
	"syscall"
	"time"

	"jungle/internal/trace"
)

// heapGuardBytes aborts a run whose live heap passes 1.5 GB: bulk_state
// retains about 3 MB per transfer at the baseline, and a run that swaps
// measures the host's pager, not the program.
const heapGuardBytes = 1500 << 20

// setupCycles is how many warm set-ups setup_s is taken from; one more,
// cold, set-up before them is discarded.
const setupCycles = 15

// instance is one workload's jungle, brought up and ready for ops.
type instance interface {
	// op runs one sample: the workload's opsPerSample ops, closed loop.
	op(sp *spanRec, parent, sample int) error
	// check compares the program's outputs with the expected ones. The
	// harness calls it between samples and keeps its cost out of every
	// per-op number.
	check() error
	virtual() time.Duration // modelled time the ops have consumed so far
	failed() int            // ops that failed so far
	recorder() *trace.Recorder
	// layer returns the per-layer metrics only this workload can give,
	// from what it accumulated over its traced ops.
	layer(tracedOps int) map[string]float64
	close(sp *spanRec)
}

// workload is one set of inputs the benchmark runs. Counts are samples at
// full scale; -seconds and -short scale warm and timed together.
type workload struct {
	name string
	// procs is the run's GOMAXPROCS: 2 where an op computes in parallel, 1
	// where it is a chain of goroutine hand-offs. On two Ps every hand-off
	// parks one OS thread and wakes another, and on a virtual machine that
	// latency is the hypervisor's: rpc_kick's wall time then spread 33%
	// between runs of one binary, against 3% on one P.
	procs        int
	warm, timed  int
	opsPerSample int
	checkEvery   int // check after every n-th timed sample, besides both ends
	// physPerOp is how often an op runs each physics kernel, by the name
	// of the kernel's probe metric: what phys.compute_share weighs by.
	physPerOp map[string]float64
	// prepare generates the inputs from the seed (and any reference result
	// the checks need, given the run's warm-up count) and returns the
	// set-up that brings a jungle up on them, so that input generation is
	// never part of setup_s.
	prepare func(seed int64, warm int) (setUp func(sp *spanRec) (instance, error), err error)
}

// counters is everything read before and after an interval to get per-op
// costs by difference.
type counters struct {
	mallocs, allocBytes uint64
	gcCycles            uint32
	gcPauseNs           uint64
	cpu                 time.Duration
	virtual             time.Duration
	// From the testbed's recorder, read in the traced run only: bytes the
	// virtual network carried and RPCs the channels completed.
	netBytes int
	calls    uint64
}

func readCounters(inst instance, counts bool) counters {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	var ru syscall.Rusage
	// Getrusage on RUSAGE_SELF cannot fail; a zero cpu reading would show.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	cpu := time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	c := counters{
		mallocs: m.Mallocs, allocBytes: m.TotalAlloc,
		gcCycles: m.NumGC, gcPauseNs: m.PauseTotalNs,
		cpu: cpu, virtual: inst.virtual(),
	}
	if counts {
		rec := inst.recorder()
		c.netBytes = wireBytes(rec)
		for _, st := range rec.CallsSnapshot() {
			c.calls += st.Hist.Count
		}
	}
	return c
}

func (c *counters) sub(o counters) {
	c.mallocs -= o.mallocs
	c.allocBytes -= o.allocBytes
	c.gcCycles -= o.gcCycles
	c.gcPauseNs -= o.gcPauseNs
	c.cpu -= o.cpu
	c.virtual -= o.virtual
	c.netBytes -= o.netBytes
	c.calls -= o.calls
}

func (c *counters) add(o counters) {
	c.mallocs += o.mallocs
	c.allocBytes += o.allocBytes
	c.gcCycles += o.gcCycles
	c.gcPauseNs += o.gcPauseNs
	c.cpu += o.cpu
	c.virtual += o.virtual
	c.netBytes += o.netBytes
	c.calls += o.calls
}

// markedHeap returns the bytes the last collection found live, without
// forcing one: the heap guard must not change the run's GC schedule.
func markedHeap() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}

// liveHeap returns HeapAlloc after two collections: the second frees what
// the first one's finalizers released.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// setupResult is the set-up phase of a run.
type setupResult struct {
	wallS     []float64 // one per warm set-up
	virtualMs float64   // Elapsed() at the end of the kept set-up
}

// coldRun brings one instance up and discards it, so that no timed set-up
// pays for what only the process's first one does. The instance is
// exercised for twice the warm-up, with a check after each half.
func coldRun(setUp func(*spanRec) (instance, error), warm int) error {
	cold, err := setUp(nil)
	if err != nil {
		return fmt.Errorf("cold set-up: %w", err)
	}
	defer cold.close(nil)
	for half := 0; half < 2; half++ {
		for i := 0; i < warm; i++ {
			if err := cold.op(nil, -1, -1); err != nil {
				return fmt.Errorf("cold op: %w", err)
			}
		}
		if err := cold.check(); err != nil {
			return fmt.Errorf("cold check: %w", err)
		}
	}
	return nil
}

// bringUp times cycles fresh set-ups, tearing each down again except the
// last, which stays up for the ops.
func bringUp(setUp func(*spanRec) (instance, error), cycles int, sp *spanRec) (instance, setupResult, error) {
	var res setupResult
	for c := 0; ; c++ {
		runtime.GC()
		root := sp.begin("setup", -1, -1)
		if sp != nil {
			sp.scope = root
		}
		t0 := time.Now()
		inst, err := setUp(sp)
		res.wallS = append(res.wallS, time.Since(t0).Seconds())
		sp.end(root)
		if err != nil {
			return nil, res, fmt.Errorf("set-up %d: %w", c, err)
		}
		if c == cycles-1 {
			res.virtualMs = float64(inst.virtual()) / 1e6
			return inst, res, nil
		}
		inst.close(sp)
	}
}

// phaseResult is one measured sequence of ops on an instance.
type phaseResult struct {
	wallUs   []float64 // per-op wall time, one entry per sample
	ops      int
	delta    counters // over the timed samples, checks excluded
	heapFrom uint64   // live heap before the first timed sample
	heapTo   uint64   // live heap after the last, jungle still up
}

// runOps warms the instance up, checks it, then times n samples. Nothing
// but the ops themselves happens inside a sample's interval; the periodic
// checks run between samples and their counter deltas are taken out.
func runOps(w *workload, inst instance, warm, n int, sp *spanRec) (phaseResult, error) {
	res := phaseResult{ops: n * w.opsPerSample}
	for i := 0; i < warm; i++ {
		if err := inst.op(nil, -1, -1); err != nil {
			return res, fmt.Errorf("warm-up op %d: %w", i, err)
		}
	}
	if err := inst.check(); err != nil {
		return res, fmt.Errorf("check after warm-up: %w", err)
	}
	res.heapFrom = liveHeap()
	res.wallUs = make([]float64, 0, n)
	var excluded counters
	start := readCounters(inst, sp != nil)
	for i := 0; i < n; i++ {
		root := sp.begin("op", -1, i)
		t0 := time.Now()
		err := inst.op(sp, root, i)
		d := time.Since(t0)
		sp.end(root)
		if err != nil {
			return res, fmt.Errorf("op %d: %w", i, err)
		}
		res.wallUs = append(res.wallUs, float64(d)/1e3/float64(w.opsPerSample))
		if w.checkEvery > 0 && (i+1)%w.checkEvery == 0 && i+1 < n {
			if live := markedHeap(); live > heapGuardBytes {
				return res, fmt.Errorf("live heap %d MB after %d ops passes the %d MB guard",
					live>>20, i+1, heapGuardBytes>>20)
			}
			before := readCounters(inst, sp != nil)
			if err := inst.check(); err != nil {
				return res, fmt.Errorf("check after op %d: %w", i, err)
			}
			after := readCounters(inst, sp != nil)
			after.sub(before)
			excluded.add(after)
		}
	}
	res.delta = readCounters(inst, sp != nil)
	res.delta.sub(start)
	res.delta.sub(excluded)
	res.heapTo = liveHeap()
	if err := inst.check(); err != nil {
		return res, fmt.Errorf("final check: %w", err)
	}
	return res, nil
}
