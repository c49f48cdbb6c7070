package core

import (
	"context"
	"runtime"
	"testing"
	"time"

	"jungle/internal/amuse/data"
	"jungle/internal/amuse/ic"
)

// TestLeakWorkerStartStop: a stopped ibis worker leaves nothing behind on
// the daemon — no handle in the worker table, no response port, no
// reader goroutine parked on a connection nobody will close. (Each stop
// used to leak one of each; 16 000 sessions left 16 081 goroutines in
// ipl.(*ReceivePort).attach.)
func TestLeakWorkerStartStop(t *testing.T) {
	tb, _ := dslSim(t)
	d := tb.Daemon
	cycle := func() {
		t.Helper()
		id, err := d.StartWorker(context.Background(),
			WorkerSpec{Kind: KindGravity, Resource: "site-a", Channel: ChannelIbis})
		if err != nil {
			t.Fatal(err)
		}
		job := d.WorkerJob(id)
		d.StopWorker(id)
		select {
		case <-job.Done():
		case <-time.After(10 * time.Second):
			t.Fatalf("worker %d did not stop", id)
		}
	}
	tables := func() (workers, members int) {
		d.mu.Lock()
		defer d.mu.Unlock()
		return len(d.workers), len(d.byMember)
	}
	// settled polls until the goroutine count is back at or below want:
	// the far ends of closed connections wind down asynchronously.
	settled := func(want int) int {
		deadline := time.Now().Add(10 * time.Second)
		for runtime.NumGoroutine() > want && time.Now().Before(deadline) {
			time.Sleep(5 * time.Millisecond)
		}
		return runtime.NumGoroutine()
	}
	for i := 0; i < 5; i++ {
		cycle()
	}
	base := -1 // two equal readings: the warm-up has wound down
	for n := runtime.NumGoroutine(); n != base; n = runtime.NumGoroutine() {
		base = n
		time.Sleep(50 * time.Millisecond)
	}
	w0, m0 := tables()
	for i := 0; i < 200; i++ {
		cycle()
	}
	if got := settled(base); got > base {
		buf := make([]byte, 1<<20)
		t.Fatalf("200 start/stop cycles grew the goroutine count from %d to %d:\n%s",
			base, got, buf[:runtime.Stack(buf, true)])
	}
	if w, m := tables(); w != w0 || m != m0 {
		t.Fatalf("after 200 cycles the daemon holds %d workers and %d members; started at %d and %d", w, m, w0, m0)
	}
}

// TestBulkRoundAllocGate: moving state is a chain of hand-overs, not of
// copies. One TransferState (worker to worker) plus the columns back
// through the coupler (GetState, SetState) allocated 16.8 x the payload
// while every vnet send copied its message and frames were built in pooled
// buffers, and 12.3 x — eleven whole copies — with one owner per message but
// a codec that marshalled into a slice and copied that behind each header.
// Encoded once into the frame that leaves and decoded once into the columns
// that keep it, five are left (DESIGN.md § Buffer ownership lists all
// eleven): the get_state reply that becomes the transfer frame, accept's
// loopback apply request, the hairpin get_state reply, the coupler's decoded
// columns, the set_state request frame — 5.8 x (the frames carry a
// 64 B/particle state with its key column). The gate is also what keeps
// bulk frames out of wire.Marshal's pooled scratch: one frame grown there by
// append-doubling costs more than the margin.
func TestBulkRoundAllocGate(t *testing.T) {
	_, sim := dslSim(t)
	const n = 10_000
	src, dst := transferPair(t, sim, ic.Plummer(n, 7))
	attrs := []string{data.AttrMass, data.AttrPos, data.AttrVel}
	round := func() {
		t.Helper()
		ctx := context.Background()
		if err := sim.TransferState(ctx, src, dst, attrs...); err != nil {
			t.Fatal(err)
		}
		st, err := dst.GetState(ctx, attrs...)
		if err != nil {
			t.Fatal(err)
		}
		if err := src.SetState(ctx, st); err != nil {
			t.Fatal(err)
		}
	}
	round()
	round()
	const rounds = 5
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < rounds; i++ {
		round()
	}
	runtime.ReadMemStats(&after)
	payload := float64(n * (8 + 24 + 24))
	ratio := float64(after.TotalAlloc-before.TotalAlloc) / rounds / payload
	t.Logf("one bulk round allocates %.2f x its payload", ratio)
	if ratio > 6.5 && !raceEnabled {
		t.Errorf("one bulk round allocates %.1f x its %d-byte payload, gate 6.5 x", ratio, int(payload))
	}
	if ts := sim.TransferStats(); ts.Direct != rounds+2 || ts.Fallback != 0 {
		t.Fatalf("transfer stats %+v: the rounds did not all go worker to worker", ts)
	}
}
