package main

import (
	"context"
	"fmt"
	"os"
	"time"

	"jungle/internal/core"
	"jungle/internal/core/kernel"
	"jungle/internal/ensemble"
	"jungle/internal/gat"
	"jungle/internal/phys/abm"
	"jungle/internal/sched"
	"jungle/internal/trace"
)

// churnMembers is the sessions per campaign: 4 initial conditions x 4
// couplings. One wall sample is a campaign's wall time over this.
const churnMembers = 16

// churnColony and churnSteps are every member's colony and generation count.
var churnColony = abm.Params{W: 16, H: 16, D: 0.15, R: 0.6, B: 0.2, DT: 0.01}

const churnSteps = 16

// sessionChurn is the tenant lifecycle: each op is one member session
// (attach, worker start, staged SetState, step, GetState, close), so
// admission, job start, join/leave, connect and teardown do the work the
// other workloads pay once, in set-up.
var sessionChurn = &workload{
	name:  "session_churn",
	procs: 1, warm: 5, timed: 1000, opsPerSample: churnMembers, checkEvery: 250,
	physPerOp: map[string]float64{"phys.abm_step_us": 1},
	prepare: func(seed int64, _ int) (func(*spanRec) (instance, error), error) {
		return func(sp *spanRec) (instance, error) { return newChurnInstance(seed, sp) }, nil
	},
}

// churnInstance is the lab testbed under a one-slot scheduler. Untraced, an
// op is one sequential ensemble.ABMSweep campaign; traced, the driver makes
// the same calls itself (Expand, stage, then per member Attach, RunMember,
// Close) so that each can carry a span.
type churnInstance struct {
	tb    *core.Testbed
	sc    *sched.Scheduler
	sweep *ensemble.ABMSweep

	first     []uint64 // the first campaign's digests, which all must equal
	mismatch  error    // the first campaign that did not
	campaigns int
	fails     int
	virt      time.Duration // pilot session + every member session so far

	// teardown is the previous member's worker jobs, which the next member
	// waits out before it starts its own worker.
	teardown []*gat.Job

	sp        *spanRec // set while a traced op runs
	startSpan int
}

func newChurnInstance(seed int64, sp *spanRec) (instance, error) {
	tb, err := newTestbed(core.NewLabTestbed, sp)
	if err != nil {
		return nil, err
	}
	in := &churnInstance{tb: tb, startSpan: -1}
	in.sc = sched.New(tb.Daemon, sched.Config{MaxLive: 1, Recorder: tb.Recorder})
	in.sweep = &ensemble.ABMSweep{
		Plan: &ensemble.Plan{
			Name: "churn", BaseSeed: seed,
			Axes: []ensemble.Axis{
				{Name: ensemble.AxisIC, Values: []float64{0, 1, 2, 3}},
				{Name: ensemble.AxisB, Values: []float64{0.05, 0.1, 0.15, 0.2}},
			},
			SetupAxes: []string{ensemble.AxisIC},
		},
		Base:       churnColony,
		Steps:      churnSteps,
		Spec:       core.WorkerSpec{Channel: core.ChannelIbis},
		Sequential: true,
		OnModel: func(_ ensemble.Member, model *core.Model) {
			in.sp.end(in.startSpan)
			for _, id := range model.WorkerIDs() {
				in.teardown = append(in.teardown, tb.Daemon.WorkerJob(id))
			}
		},
	}
	if err := in.pilot(sp); err != nil {
		in.close(nil)
		return nil, fmt.Errorf("pilot session: %w", err)
	}
	return in, nil
}

// pilot deploys one tenant during set-up: attach, colony worker started,
// staged state uploaded, close. Its virtual time is the workload's
// setup_virtual_ms, since the ops start their own workers.
func (in *churnInstance) pilot(sp *spanRec) error {
	ctx := context.Background()
	members, err := in.sweep.Plan.Expand()
	if err != nil {
		return err
	}
	blob, err := in.sweep.SetupBlob(members[0])
	if err != nil {
		return err
	}
	st, err := kernel.UnmarshalState(blob)
	if err != nil {
		return err
	}
	id := sp.under("sched.attach")
	sess, _, err := in.sc.Attach(ctx, "pilot", true)
	sp.end(id)
	if err != nil {
		return err
	}
	sim := sess.NewSim(ctx, nil)
	p := in.sweep.Base
	id = sp.under("core.worker_start")
	model, err := sim.NewModel(ctx, core.Kind(abm.Kind), in.sweep.Spec,
		abm.SetupArgs{W: p.W, H: p.H, D: p.D, R: p.R, B: p.B, DT: p.DT})
	sp.end(id)
	if err == nil {
		err = model.SetState(ctx, st)
	}
	in.virt = sim.Elapsed()
	id = sp.under("sched.close")
	cerr := in.sc.Close("pilot")
	sp.end(id)
	if err != nil {
		return err
	}
	return cerr
}

func (in *churnInstance) op(sp *spanRec, parent, sample int) error {
	// The scheduler retires a closed session's id, and member ids derive
	// from the plan's name, so every campaign runs under its own name.
	// Member seeds and digests do not depend on it.
	in.sweep.Plan.Name = fmt.Sprintf("churn%06d", in.campaigns)
	var digests []uint64
	if sp == nil {
		rep, err := ensemble.Run(context.Background(), ensemble.Config{
			Scheduler: in.sc, Plan: in.sweep.Plan, Setup: in.sweep.SetupBlob, Run: in.runMember, Sequential: true,
		})
		if err != nil {
			return err
		}
		for _, m := range rep.Members {
			if m.Err != "" {
				in.memberFailed(m.Err)
			}
		}
		in.virt += rep.SumVirtual
		digests = rep.Digests()
	} else {
		var err error
		if digests, err = in.tracedCampaign(sp, parent, sample); err != nil {
			return err
		}
	}
	if in.first == nil {
		in.first = make([]uint64, len(digests))
	}
	for i, d := range digests {
		switch {
		case d == 0:
			// The member failed and is counted in fails.
		case in.first[i] == 0:
			in.first[i] = d
		case d != in.first[i] && in.mismatch == nil:
			in.mismatch = fmt.Errorf("campaign %d member %d digest %016x, first campaign had %016x",
				in.campaigns, i, d, in.first[i])
		}
	}
	in.campaigns++
	return nil
}

// runMember is the sweep's RunMember behind a wait for the previous member's
// worker to be gone. Close only asks a worker to stop; a worker still
// leaving the pool while the next one joins can make that join read the
// leave event where it expects its ack (ROADMAP item 1a), and under host
// load that failed one member in some thousands even with one session at a
// time. With the wait a session's teardown is inside the next op's time
// instead of overlapping it.
func (in *churnInstance) runMember(ctx context.Context, sess *sched.Session, m ensemble.Member, setup []byte) (uint64, time.Duration, error) {
	for _, job := range in.teardown {
		<-job.Done()
	}
	in.teardown = in.teardown[:0]
	return in.sweep.RunMember(ctx, sess, m, setup)
}

// tracedCampaign is the sequential arm of ensemble.Run, made from the
// driver so that staging, attach, member run and close are spans.
func (in *churnInstance) tracedCampaign(sp *spanRec, parent, sample int) ([]uint64, error) {
	ctx := context.Background()
	daemon := in.sc.Daemon()
	id := sp.begin("ensemble.stage", parent, sample)
	members, err := in.sweep.Plan.Expand()
	if err != nil {
		return nil, err
	}
	refs := make(map[uint64]uint64)
	defer func() {
		for _, ref := range refs {
			daemon.DropCheckpoint(ref)
		}
	}()
	for _, m := range members {
		if _, ok := refs[m.SetupSig]; ok {
			continue
		}
		blob, err := in.sweep.SetupBlob(m)
		if err != nil {
			return nil, err
		}
		ref := core.NewStoreRef()
		daemon.StoreCheckpoint(ref, blob)
		refs[m.SetupSig] = ref
	}
	sp.end(id)

	digests := make([]uint64, len(members))
	in.sp = sp
	defer func() { in.sp = nil }()
	for i, m := range members {
		sid := fmt.Sprintf("%s/m%04d", in.sweep.Plan.Name, m.Index)
		id = sp.begin("sched.attach", parent, sample)
		sess, _, _, err := in.sc.AttachRetry(ctx, sid, true, 64)
		sp.end(id)
		if err != nil {
			in.memberFailed(err.Error())
			continue
		}
		setup, _ := daemon.CheckpointBlob(refs[m.SetupSig])
		run := sp.begin("ensemble.member_run", parent, sample)
		in.startSpan = sp.begin("core.worker_start", run, sample)
		digest, virtual, err := in.runMember(ctx, sess, m, setup)
		sp.end(in.startSpan) // still open if the member failed before its model was up
		sp.end(run)
		id = sp.begin("sched.close", parent, sample)
		cerr := in.sc.Close(sid)
		sp.end(id)
		if err == nil {
			err = cerr
		}
		if err != nil {
			in.memberFailed(err.Error())
			continue
		}
		digests[i] = digest
		in.virt += virtual
	}
	return digests, nil
}

// memberFailed counts a failed op and says why on standard error.
func (in *churnInstance) memberFailed(why string) {
	in.fails++
	fmt.Fprintf(os.Stderr, "jbench: session_churn: campaign %d: %s\n", in.campaigns, why)
}

// check reports the first campaign whose digests differed from the first
// campaign's: the sixteen members compute the same colonies every time. A
// member that failed is a failed op, not a wrong output.
func (in *churnInstance) check() error { return in.mismatch }

func (in *churnInstance) virtual() time.Duration    { return in.virt }
func (in *churnInstance) failed() int               { return in.fails }
func (in *churnInstance) recorder() *trace.Recorder { return in.tb.Recorder }

func (in *churnInstance) layer(int) map[string]float64 { return nil }

func (in *churnInstance) close(sp *spanRec) {
	in.sc.Shutdown()
	closeTestbed(in.tb, sp)
}
