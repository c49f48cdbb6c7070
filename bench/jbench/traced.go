package main

import (
	"fmt"
	"path/filepath"
	"runtime"
)

// tracedSetups is how many traced set-ups give the set-up spans' medians.
const tracedSetups = 5

// spanDir is where a traced run writes its spans, relative to the checkout
// root the benchmark is run from.
const spanDir = "bench/out"

// perLayer lists every per-layer metric with its unit, in report order. A
// traced run prints all of them on every workload: a span or count that
// does not occur on a workload reads 0 there, which is what it cost.
var perLayer = []struct{ name, unit string }{
	{"vnet.bytes_per_op", "B"},
	{"vnet.send_recv_small_ns", "ns"},
	{"vnet.send_recv_mb_us", "us"},
	{"smartsockets.direct_rtt_ns", "ns"},
	{"smartsockets.routed_rtt_ns", "ns"},
	{"smartsockets.routed_rtt_allocs", "count"},
	{"smartsockets.routed_wire_bytes", "B"},
	{"smartsockets.connect_routed_us", "us"},
	{"smartsockets.stream_mb_us", "us"},
	{"ipl.join_leave_us", "us"},
	{"ipl.port_rtt_ns", "ns"},
	{"ipl.port_rtt_allocs", "count"},
	{"core.sync_kick_us", "us"},
	{"core.sync_kick_virtual_us", "virtual-us"},
	{"core.pipelined_round_us", "us"},
	{"core.pipelined_round_virtual_us", "virtual-us"},
	{"core.local_call_ns", "ns"},
	{"core.calls_per_op", "count"},
	{"core.worker_start_us", "us"},
	{"core.worker_stop_us", "us"},
	{"core.transfer_direct_us", "us"},
	{"core.transfer_direct_virtual_us", "virtual-us"},
	{"core.hairpin_get_us", "us"},
	{"core.hairpin_set_us", "us"},
	{"core.hairpin_virtual_us", "virtual-us"},
	{"core.transfer_fallbacks", "count"},
	{"kernel.marshal_state_us_per_mb", "us/MB"},
	{"kernel.unmarshal_state_us_per_mb", "us/MB"},
	{"kernel.state_codec_allocs", "count"},
	{"kernel.rpc_frame_ns", "ns"},
	{"kernel.args_gob_ns", "ns"},
	{"kernel.args_gob_allocs", "count"},
	{"mpisim.allreduce_us", "us"},
	{"mpisim.allgather_us", "us"},
	{"phys.nbody_evolve_us", "us"},
	{"phys.sph_evolve_us", "us"},
	{"phys.tree_field_us", "us"},
	{"phys.stellar_evolve_us", "us"},
	{"phys.abm_step_us", "us"},
	{"phys.compute_share", "ratio"},
	{"bridge.field_phase_us", "us"},
	{"bridge.kick_phase_us", "us"},
	{"bridge.evolve_phase_us", "us"},
	{"bridge.stellar_phase_us", "us"},
	{"sched.attach_us", "us"},
	{"sched.close_us", "us"},
	{"ensemble.stage_us", "us"},
	{"ensemble.engine_overhead_us", "us"},
	{"trace.record_call_ns", "ns"},
	{"deploy.testbed_build_us", "us"},
	{"deploy.testbed_close_us", "us"},
	{"host.cpu_us_per_op", "us"},
	{"host.wall_median_us", "us"},
	{"host.wall_mean_us", "us"},
	{"host.op_wall_q1_us", "us"},
	{"host.op_wall_q3_us", "us"},
	{"host.op_wall_tail_us", "us"},
	{"host.op_wall_tail_pct", "%"},
	{"host.op_wall_samples", "count"},
	{"host.gc_cycles_per_op", "count"},
	{"host.gc_pause_us_per_op", "us"},
	{"host.heap_retained_kb_per_op", "KB"},
	{"host.goroutines_end", "count"},
	{"host.traced_wall_mean_us", "us"},
	{"host.op_self_us", "us"},
	{"host.trace_overhead_pct", "%"},
}

// spanMedians are the per-layer metrics that are the median duration of
// every span of a name, wherever it was recorded.
var spanMedians = map[string]string{
	"deploy.testbed_build_us": "deploy.testbed_build",
	"deploy.testbed_close_us": "deploy.testbed_close",
	"core.worker_start_us":    "core.worker_start",
	"core.worker_stop_us":     "core.worker_stop",
	"sched.attach_us":         "sched.attach",
	"sched.close_us":          "sched.close",
}

// opSpanMedians are the medians, over the traced ops, of the time an op
// spent in spans of a name.
var opSpanMedians = map[string]string{
	"core.sync_kick_us":       "core.sync_kick",
	"core.pipelined_round_us": "core.pipelined_round",
	"core.transfer_direct_us": "core.transfer_direct",
	"core.hairpin_get_us":     "core.hairpin_get",
	"core.hairpin_set_us":     "core.hairpin_set",
}

// opSpanMeans are total span time over the traced ops: the bridge's phases,
// which must add up to the step (the stellar one runs every fourth step, so
// its per-op median would read 0), and a campaign's staging per session.
var opSpanMeans = map[string]string{
	"bridge.field_phase_us":   "bridge.field_phase",
	"bridge.kick_phase_us":    "bridge.kick_phase",
	"bridge.evolve_phase_us":  "bridge.evolve_phase",
	"bridge.stellar_phase_us": "bridge.stellar_phase",
	"ensemble.stage_us":       "ensemble.stage",
}

// runTraced is the separate traced run. In one process it measures a
// quarter of the op count twice on fresh instances, first with spans off,
// then with spans on, so that the difference is the tracing overhead; it
// then runs the probes and prints the per-layer metrics. End-to-end numbers
// are never taken from here.
func runTraced(w *workload, seed int64, scale float64, cycles int) (result, []metric, error) {
	warm := scaled(w.warm, scale, 1)
	n := scaled(w.timed, scale/4, 2)
	setUp, err := w.prepare(seed, warm)
	if err != nil {
		return result{}, nil, fmt.Errorf("prepare inputs: %w", err)
	}
	if err := coldRun(setUp, warm); err != nil {
		return result{}, nil, err
	}
	plain, err := measureOnce(w, setUp, 1, warm, n, nil)
	if err != nil {
		return result{}, nil, fmt.Errorf("untraced reference: %w", err)
	}
	if cycles > tracedSetups {
		cycles = tracedSetups
	}
	sp := newSpanRec()
	traced, err := measureOnce(w, setUp, cycles, warm, n, sp)
	if err != nil {
		return result{}, nil, err
	}
	if err := sp.write(filepath.Join(spanDir, w.name+".spans.json")); err != nil {
		return result{}, nil, fmt.Errorf("write spans: %w", err)
	}
	probes, err := runProbes(seed)
	if err != nil {
		return result{}, nil, err
	}

	vals := map[string]float64(probes)
	for k, v := range traced.layer {
		vals[k] = v
	}
	ops := float64(traced.ph.ops)
	for metric, name := range spanMedians {
		vals[metric] = median(durations(sp.spans, name))
	}
	for metric, name := range opSpanMedians {
		vals[metric] = median(perOp(sp.spans, name))
	}
	for metric, name := range opSpanMeans {
		vals[metric] = sum(durations(sp.spans, name)) / ops
	}
	vals["vnet.bytes_per_op"] = float64(traced.ph.delta.netBytes) / ops
	vals["core.calls_per_op"] = float64(traced.ph.delta.calls) / ops

	// Host costs come from the untraced reference; only the overhead
	// figure compares the two.
	ref := plain.ph
	refOps := float64(ref.ops)
	q1, med, q3 := quartiles(ref.wallUs)
	tailPct, tailUs := tail(ref.wallUs)
	vals["host.cpu_us_per_op"] = float64(ref.delta.cpu) / 1e3 / refOps
	vals["host.wall_median_us"] = med
	vals["host.wall_mean_us"] = mean(ref.wallUs)
	vals["host.op_wall_q1_us"], vals["host.op_wall_q3_us"] = q1, q3
	vals["host.op_wall_tail_us"], vals["host.op_wall_tail_pct"] = tailUs, tailPct
	vals["host.op_wall_samples"] = float64(len(ref.wallUs))
	vals["host.gc_cycles_per_op"] = float64(ref.delta.gcCycles) / refOps
	vals["host.gc_pause_us_per_op"] = float64(ref.delta.gcPauseNs) / 1e3 / refOps
	vals["host.heap_retained_kb_per_op"] = (float64(ref.heapTo) - float64(ref.heapFrom)) / 1024 / refOps
	vals["host.goroutines_end"] = float64(runtime.NumGoroutine())
	vals["host.traced_wall_mean_us"] = mean(traced.ph.wallUs)
	vals["host.trace_overhead_pct"] = (median(traced.ph.wallUs) - med) / med * 100

	var compute float64
	for name, perOp := range w.physPerOp {
		compute += perOp * vals[name]
	}
	vals["phys.compute_share"] = compute / med
	// Where the traced ops are the driver's own sequence of the calls an
	// engine makes untraced (session_churn: ensemble.Run), what the engine
	// adds per op is the untraced wall time less those calls' spans.
	var own float64
	for _, name := range []string{"ensemble.stage", "sched.attach", "ensemble.member_run", "sched.close"} {
		own += sum(durations(sp.spans, name))
	}
	if own > 0 {
		vals["ensemble.engine_overhead_us"] = mean(ref.wallUs) - own/ops
	}
	// Time inside an op that no child span covers: the driver's own loop,
	// and whatever a layer does between the calls that carry spans.
	var uncovered float64
	for i, self := range selfTimes(sp.spans) {
		if sp.spans[i].Name == "op" {
			uncovered += float64(self) / 1e3
		}
	}
	vals["host.op_self_us"] = uncovered / float64(len(traced.ph.wallUs))

	ms := make([]metric, len(perLayer))
	for i, m := range perLayer {
		ms[i] = metric{m.name, m.unit, vals[m.name]}
	}
	failed := plain.failed + traced.failed
	return result{Correct: failed == 0, Attempted: ref.ops + traced.ph.ops, Failed: failed}, ms, nil
}

// measured is one instance's set-ups, ops and teardown.
type measured struct {
	ph     phaseResult
	failed int
	layer  map[string]float64
}

// measureOnce brings an instance up, runs the ops on it and closes it.
func measureOnce(w *workload, setUp func(*spanRec) (instance, error), cycles, warm, n int, sp *spanRec) (measured, error) {
	inst, _, err := bringUp(setUp, cycles, sp)
	if err != nil {
		return measured{}, err
	}
	ph, err := runOps(w, inst, warm, n, sp)
	m := measured{ph: ph, failed: inst.failed(), layer: inst.layer(ph.ops)}
	inst.close(sp)
	return m, err
}
