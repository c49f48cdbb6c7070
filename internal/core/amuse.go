package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"jungle/internal/amuse/data"
	"jungle/internal/amuse/units"
	"jungle/internal/core/kernel"
	"jungle/internal/gostack"
	"jungle/internal/phys/bridge"
	"jungle/internal/trace"
	"jungle/internal/vtime"
)

// Simulation is the coupler: the Go equivalent of an AMUSE Python script's
// session. It owns the virtual clock, a unit converter for checked
// conversions at the API boundary, and the workers it started. Models
// created here implement the bridge interfaces (including the async
// AsyncDynamics/DirectField ones), so phys/bridge composes them exactly
// like Fig. 7 — whether the model is in-process or a continent away behind
// the ibis channel — and pipelines its per-phase calls across all of them.
type Simulation struct {
	daemon *Daemon
	conv   *units.Converter
	clock  *vtime.Clock
	ctx    context.Context

	// rec is the observability plane: the network's recorder when that is
	// a *trace.Recorder (every testbed installs one), nil when the network
	// records nothing. It receives channel-layer call latency histograms
	// (trace.RenderCalls), bulk-transfer and store gauges
	// (trace.RenderHealth), elastic-gang telemetry (trace.RenderGangs)
	// and, for a session, its accounting (trace.RenderSessions). Recording
	// is passive (it never touches the clock or the wire), so results are
	// byte-identical with the plane off.
	rec *trace.Recorder

	mu        sync.Mutex
	models    []*modelProxy
	transfers TransferStats

	// Session identity for multi-tenant control planes: the id namespaces
	// every worker this simulation starts (disjoint worker-id blocks, and
	// with them pool port names, peer-plane ports and checkpoint refs).
	// Empty for standalone simulations — the seed single-tenant behavior.
	session string
	// placer, when set, resolves WorkerSpecs that leave Resource open —
	// the scheduler installs its capacity-aware fair-share policy here.
	// nil means SelectResource, the single-session default.
	placer func(WorkerSpec) (string, error)
}

// NewSimulation creates a coupler session on a running daemon. ctx is the
// session context: it bounds every call made without an explicit context
// (the bridge-interface methods), and cancelling it aborts all in-flight
// waits. nil means context.Background(). The converter defines the
// simulation's physical scale (may be nil for pure N-body work).
func NewSimulation(ctx context.Context, d *Daemon, conv *units.Converter) *Simulation {
	if ctx == nil {
		ctx = context.Background()
	}
	rec, _ := d.Deployment().Net.Recorder().(*trace.Recorder)
	return &Simulation{daemon: d, conv: conv, clock: vtime.NewClock(), ctx: ctx, rec: rec}
}

// Elapsed returns the coupler's virtual time — the per-iteration wall time
// the paper reports in §6.2.
func (s *Simulation) Elapsed() time.Duration { return s.clock.Now() }

// SetSession binds the simulation to a control-plane session: id
// namespaces every worker it starts and labels its rows in the plane's
// per-session accounting. Call before starting models.
func (s *Simulation) SetSession(id string) {
	s.mu.Lock()
	s.session = id
	s.mu.Unlock()
}

// Session returns the control-plane session id ("" for standalone runs).
func (s *Simulation) Session() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.session
}

// SetPlacer installs the placement policy used to resolve WorkerSpecs
// that leave Resource open. nil restores SelectResource.
func (s *Simulation) SetPlacer(f func(WorkerSpec) (string, error)) {
	s.mu.Lock()
	s.placer = f
	s.mu.Unlock()
}

// place resolves an open spec to a resource name through the installed
// placement policy (SelectResource when none is installed).
func (s *Simulation) place(spec WorkerSpec) (string, error) {
	s.mu.Lock()
	p := s.placer
	s.mu.Unlock()
	if p != nil {
		return p(spec)
	}
	return SelectResource(s.daemon.Deployment(), spec)
}

// TimeQuantity converts a physical time into N-body time using the
// session converter — the checked conversion AMUSE performs on every
// boundary crossing.
func (s *Simulation) TimeQuantity(q units.Quantity) (float64, error) {
	if s.conv == nil {
		return 0, errors.New("core: simulation has no unit converter")
	}
	if q.Unit.Dim != (units.Dim{Time: 1}) {
		return 0, fmt.Errorf("%w: %s is not a time", units.ErrDimension, q)
	}
	return s.conv.ToNBody(q)
}

// Stop shuts down all models concurrently (workers stop in parallel, like
// every other fan-out in this API; the daemon survives for the next
// simulation, as the paper prescribes). It returns once every worker's
// job has ended, with the joined shutdown errors.
func (s *Simulation) Stop() error {
	s.mu.Lock()
	models := append([]*modelProxy(nil), s.models...)
	s.models = nil
	s.mu.Unlock()
	errs := make([]error, len(models))
	var wg sync.WaitGroup
	for i, m := range models {
		wg.Add(1)
		go func(i int, m *modelProxy) {
			defer wg.Done()
			gostack.Grow()
			errs[i] = m.shutdown()
		}(i, m)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// modelProxy is the coupler-side endpoint of one worker. How the endpoint
// comes up, is rebuilt and goes away is in lifecycle.go.
type modelProxy struct {
	sim  *Simulation
	kind Kind

	mu   sync.Mutex
	spec WorkerSpec
	ch   channel // nil while the endpoint is down
	// workers holds the daemon worker ids behind the model, rank order:
	// none for an in-process mpi-channel model, one for a solo worker, K
	// for a gang. The slice is replaced, never written to: a reader may keep
	// what it took under mu.
	workers []int
	gen     int // bumped per successful rebuild
	// While phase is rebuilding, replayable calls wait in parked — the one
	// queue — and settled is open; it closes when the episode ends.
	phase     phase
	parked    []parkedCall
	settled   chan struct{}
	accounted int // the workers the session's accounting holds for this model

	n       int
	lastErr error
	setup   []byte // the encoded setup args, replayed by every rebuild
	// lastSnap is the raw frame of the model's most recent checkpoint
	// snapshot (kernel.Snapshot codec) — the full model state including the
	// kernel's clock, and the one thing a rebuild restores. snapSeq is the
	// issue-order seq of the call that took it.
	lastSnap    []byte
	snapSeq     uint64
	wroteSeq    uint64 // the latest completed call that changed the state,
	wroteMethod string // and its method: snapSeq must be no older

	// seq numbers calls in issue order so the parked queue can restore the
	// per-worker FIFO that pipelined callers rely on.
	seq atomic.Uint64
}

// newModel starts a worker per spec and opens its channel. ctx bounds the
// job submission, the worker's ready announcement and the setup call.
func (s *Simulation) newModel(ctx context.Context, kind Kind, spec WorkerSpec, setup any) (*modelProxy, error) {
	if !kernel.Registered(string(kind)) {
		return nil, fmt.Errorf("%w: %q (missing adapter import? see internal/kernels)", ErrBadKind, kind)
	}
	spec.Kind = kind
	if spec.Channel == "" {
		spec.Channel = ChannelIbis
	}
	spec.Session = s.Session()
	m := &modelProxy{sim: s, kind: kind, setup: kernel.Encode(setup)}
	if err := m.rebuild(ctx, plan{cause: "birth", shape: spec}); err != nil {
		m.shutdown()
		return nil, err
	}
	s.mu.Lock()
	s.models = append(s.models, m)
	s.mu.Unlock()
	return m, nil
}

// isGang reports whether this proxy fronts a gang of rank workers.
func (m *modelProxy) isGang() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.workers) > 1
}

// GangWorkers returns the daemon worker ids of the model's rank workers
// in rank order, or nil for a solo worker (diagnostics: which jobs make
// up this model).
func (m *modelProxy) GangWorkers() []int {
	if ids := m.WorkerIDs(); len(ids) > 1 {
		return ids
	}
	return nil
}

// WorkerIDs returns the daemon worker ids behind this model: the rank
// workers for a gang, the single worker otherwise (empty for in-process
// mpi-channel models, which have no daemon job). Diagnostics and fault
// injection.
func (m *modelProxy) WorkerIDs() []int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]int(nil), m.workers...)
}

// workerCountLocked is what the model counts for in session accounting: an
// in-process mpi-channel model has no daemon job but is still one worker.
func (m *modelProxy) workerCountLocked() int { return max(1, len(m.workers)) }

// endpoint is what one call is issued against: the channel, the worker a
// request is addressed to (rank 0's for a gang, whose channel re-addresses
// per rank) and the rebuild generation.
type endpoint struct {
	ch     channel
	worker int
	gen    int
}

func (m *modelProxy) endpointLocked() endpoint {
	ep := endpoint{ch: m.ch, gen: m.gen}
	if len(m.workers) > 0 {
		ep.worker = m.workers[0]
	}
	return ep
}

func (m *modelProxy) resource() string {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.spec.Resource
}

// replaceableLocked reports whether a dead worker can be transparently
// replaced (§5: "in theory it should be possible to transparently find a
// replacement machine" — the prototype could not; this implementation can).
// The next call restarts the worker (resource re-selected; a gang's dead
// ranks restart on its resource and gang_init re-wires every rank),
// restores the last checkpoint snapshot — the full model state including
// the kernel's clock, on every rank — and re-issues the interrupted calls.
// That snapshot is all a rebuild restores, so it is a cure only while the
// snapshot covers every state-changing call that has completed: a death
// after an uncovered one (evolve, kick, set_state, transfer in) fails with
// ErrWorkerDied naming it.
func (m *modelProxy) replaceableLocked() bool {
	return m.wroteSeq <= m.snapSeq
}

// keepsState reports whether a method leaves the model's state as it was.
// A method missing here counts as a write: a forgotten read costs a
// structured error on the next death, never a rollback.
func keepsState(method string) bool {
	switch method {
	case "get_state", "stats", "energies", "field_at",
		kernel.MethodOfferState, kernel.MethodCheckpoint:
		return true
	}
	return false
}

// wrote stamps a completed call, if it changed the model's state.
func (m *modelProxy) wrote(seq uint64, method string) {
	m.mu.Lock()
	if seq > m.wroteSeq && !keepsState(method) {
		m.wroteSeq, m.wroteMethod = seq, method
	}
	m.mu.Unlock()
}

// Err returns the sticky error, if any.
func (m *modelProxy) Err() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.lastErr
}

func (m *modelProxy) setErr(err error) {
	m.mu.Lock()
	if m.lastErr == nil {
		m.lastErr = err
	}
	m.mu.Unlock()
}

// sessionCtx substitutes the session context for a nil one.
func (m *modelProxy) sessionCtx(ctx context.Context) context.Context {
	if ctx == nil {
		return m.sim.ctx
	}
	return ctx
}

// Go issues one typed RPC asynchronously and returns its future. The
// request is on the channel — and, for a remote worker, on the wide-area
// link — before Go returns; calls issued back to back from one goroutine
// reach the worker in order. This is the primitive everything else is
// sugar over: the AMUSE asynchronous function-call pattern
// (call.result() ⇔ Call.Wait + Call.Decode).
func (m *modelProxy) Go(method string, args any) *Call {
	return m.issue(m.sim.clock.Now(), kernel.EncodeRequest(method, args), callOpts{class: replayable})
}

// Call performs one typed RPC against the worker and blocks for the
// result — thin sugar over Go(...).Wait(ctx).Decode. nil ctx means the
// session context. It is the generic escape hatch kernels registered
// outside core use to drive their workers — see internal/phys/analytic
// for a complete external kind.
func (m *modelProxy) Call(ctx context.Context, method string, args, reply any) error {
	c := m.Go(method, args)
	if err := c.Wait(m.sessionCtx(ctx)); err != nil {
		return err
	}
	return c.Decode(reply)
}

// cacheSnapshot remembers the model's latest checkpoint frame for
// replacement (Simulation.Checkpoint and ResumeSimulation call it). seq
// is the snapshot call's own issue-order sequence, not the counter at
// observation time: it covers exactly the calls issued before it.
func (m *modelProxy) cacheSnapshot(blob []byte, seq uint64) {
	m.mu.Lock()
	m.lastSnap = blob
	m.snapSeq = seq
	m.mu.Unlock()
}

// The bridge.Dynamics surface, defined once on the handle every typed
// model embeds (StellarModel shadows EvolveTo with the stellar signature).

// SetParticles uploads the particle set. The payload aliases p's columns:
// Go encodes it into the request frame before it returns.
func (m *modelProxy) SetParticles(p *data.Particles) error {
	if err := m.Go("set_particles", kernel.ParticlesToPayload(p)).Wait(m.sim.ctx); err != nil {
		return err
	}
	m.mu.Lock()
	m.n = p.Len()
	m.mu.Unlock()
	return nil
}

// GoEvolveTo issues the evolve call without waiting (bridge.AsyncDynamics).
func (m *modelProxy) GoEvolveTo(t float64) Waiter {
	return m.Go("evolve", kernel.EvolveArgs{T: t})
}

// GoKick issues a kick without waiting (bridge.AsyncDynamics).
func (m *modelProxy) GoKick(dv []data.Vec3) Waiter {
	return m.Go("kick", kernel.KickArgs{DV: dv})
}

// EvolveTo implements bridge.Dynamics.
func (m *modelProxy) EvolveTo(ctx context.Context, t float64) error {
	return m.GoEvolveTo(t).Wait(m.sessionCtx(ctx))
}

// Kick implements bridge.Dynamics.
func (m *modelProxy) Kick(ctx context.Context, dv []data.Vec3) error {
	return m.GoKick(dv).Wait(m.sessionCtx(ctx))
}

// Positions implements bridge.Dynamics (nil on RPC failure; see Err).
func (m *modelProxy) Positions() []data.Vec3 {
	st, err := m.GetState(nil, data.AttrPos)
	if err != nil {
		return nil
	}
	return st.Vec(data.AttrPos)
}

// Masses implements bridge.Dynamics.
func (m *modelProxy) Masses() []float64 {
	st, err := m.GetState(nil, data.AttrMass)
	if err != nil {
		return nil
	}
	return st.Float(data.AttrMass)
}

// N implements bridge.Dynamics: the particle count last uploaded or
// restored.
func (m *modelProxy) N() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.n
}

// defaultStateAttrs is the common dynamics exchange.
func defaultStateAttrs(attrs []string) []string {
	if len(attrs) == 0 {
		return []string{data.AttrMass, data.AttrPos, data.AttrVel}
	}
	return attrs
}

// goGetState issues a batched columnar read; the hook decodes what it keeps
// out of the view of the reply, whose frame then goes back to the free list.
func (m *modelProxy) goGetState(attrs []string, into func(kernel.StateView) error) *Call {
	args := kernel.AppendStateRequest(nil, &kernel.StateRequest{Attrs: attrs})
	return m.issue(m.sim.clock.Now(), request{Method: "get_state", Args: args}, callOpts{class: replayable, after: func(c *Call) error {
		defer c.release()
		v, err := kernel.ViewState(c.result)
		if err != nil {
			return err
		}
		return into(v)
	}})
}

// GetState pulls whole attribute columns from the worker in one round
// trip through the hand-rolled columnar codec — the batched alternative
// to one RPC per attribute (or per particle). With no attrs it fetches
// mass, position and velocity. nil ctx means the session context.
func (m *modelProxy) GetState(ctx context.Context, attrs ...string) (*kernel.StatePayload, error) {
	var out *kernel.StatePayload
	c := m.goGetState(defaultStateAttrs(attrs), func(v kernel.StateView) error {
		out = v.Payload()
		return nil
	})
	if err := c.Wait(m.sessionCtx(ctx)); err != nil {
		return nil, err
	}
	return out, nil
}

// GoSetState issues a batched columnar write without waiting: the columns
// are encoded here, once, into the request frame that leaves, so the caller
// may change st as soon as this returns.
func (m *modelProxy) GoSetState(st *kernel.StatePayload) *Call {
	req, err := kernel.NewStateRequest("set_state", st)
	if err != nil {
		return failedCall(err)
	}
	return m.issue(m.sim.clock.Now(), req, callOpts{class: replayable})
}

// SetState pushes whole attribute columns to the worker in one round
// trip. nil ctx means the session context.
func (m *modelProxy) SetState(ctx context.Context, st *kernel.StatePayload) error {
	return m.GoSetState(st).Wait(m.sessionCtx(ctx))
}

// GoPull issues the batched column read and scatters it into the particle
// set when the result is first observed — pull many models, then Gather.
// The columns are decoded from the reply straight into p's.
func (m *modelProxy) GoPull(p *data.Particles, attrs ...string) *Call {
	return m.goGetState(defaultStateAttrs(attrs), func(v kernel.StateView) error {
		return kernel.ScatterView(p, &v)
	})
}

// Gravity is the coupler-side PhiGRAPE model (bridge.AsyncDynamics +
// bridge.MassSettable).
type Gravity struct {
	*modelProxy
}

// GravityOptions configure NewGravity.
type GravityOptions struct {
	Kernel string  // "phigrape-cpu" (default) or "phigrape-gpu"
	Eps    float64 // softening
	Eta    float64 // timestep parameter (0 = default)
}

// NewGravity starts a gravitational-dynamics worker. ctx bounds worker
// startup (job submission, ready announcement, setup call).
func (s *Simulation) NewGravity(ctx context.Context, spec WorkerSpec, opt GravityOptions) (*Gravity, error) {
	if opt.Kernel == "" {
		opt.Kernel = "phigrape-cpu"
	}
	spec.Kernel = opt.Kernel
	m, err := s.newModel(ctx, KindGravity, spec, kernel.SetupGravityArgs{
		Kernel: opt.Kernel, Eps: opt.Eps, Eta: opt.Eta,
	})
	if err != nil {
		return nil, err
	}
	return &Gravity{modelProxy: m}, nil
}

// SetMass implements bridge.MassSettable (errors are sticky; see Err).
func (g *Gravity) SetMass(i int, mass float64) {
	g.Call(nil, "set_mass", kernel.SetMassArgs{Index: i, Mass: mass}, &kernel.Empty{})
}

// Energy returns (kinetic, potential). nil ctx means the session context.
func (g *Gravity) Energy(ctx context.Context) (float64, float64, error) {
	var out kernel.EnergiesResult
	if err := g.Call(ctx, "energies", kernel.Empty{}, &out); err != nil {
		return 0, 0, err
	}
	return out.Kinetic, out.Potential, nil
}

// Hydro is the coupler-side Gadget model (bridge.AsyncDynamics +
// bridge.EnergyInjector).
type Hydro struct {
	*modelProxy
}

// HydroOptions configure NewHydro.
type HydroOptions struct {
	SelfGravity bool
	EpsGrav     float64
	NTarget     int
}

// NewHydro starts an SPH worker (set spec.Nodes > 1 for an MPI worker).
func (s *Simulation) NewHydro(ctx context.Context, spec WorkerSpec, opt HydroOptions) (*Hydro, error) {
	m, err := s.newModel(ctx, KindHydro, spec, kernel.SetupHydroArgs{
		SelfGravity: opt.SelfGravity, EpsGrav: opt.EpsGrav, NTarget: opt.NTarget,
	})
	if err != nil {
		return nil, err
	}
	return &Hydro{modelProxy: m}, nil
}

// InjectEnergy implements bridge.EnergyInjector.
func (h *Hydro) InjectEnergy(center data.Vec3, radius, e float64) int {
	h.Call(nil, "inject_energy", kernel.InjectArgs{Center: center, Radius: radius, E: e}, &kernel.Empty{})
	return 0
}

// StellarModel is the coupler-side SSE model (bridge.Stellar).
type StellarModel struct {
	*modelProxy
}

// NewStellar starts a stellar-evolution worker for the given ZAMS masses
// (in MSun). myrPerTime and nbodyPerMSun are the unit scales the bridge
// needs.
func (s *Simulation) NewStellar(ctx context.Context, spec WorkerSpec, massesMSun []float64, myrPerTime, nbodyPerMSun float64) (*StellarModel, error) {
	m, err := s.newModel(ctx, KindStellar, spec, kernel.SetupStellarArgs{
		MassesMSun: massesMSun, MyrPerTime: myrPerTime, NBodyPerMSun: nbodyPerMSun,
	})
	if err != nil {
		return nil, err
	}
	return &StellarModel{modelProxy: m}, nil
}

// EvolveTo implements bridge.Stellar.
func (st *StellarModel) EvolveTo(ctx context.Context, t float64) ([]bridge.StellarEvent, error) {
	var out kernel.StellarEvolveResult
	if err := st.Call(ctx, "evolve", kernel.EvolveArgs{T: t}, &out); err != nil {
		return nil, err
	}
	events := make([]bridge.StellarEvent, 0, len(out.Events))
	for _, ev := range out.Events {
		events = append(events, bridge.StellarEvent{Index: ev.Index, MassLoss: ev.MassLoss, SN: ev.SN})
	}
	return events, nil
}

// FieldModel is the coupler-side coupling model (bridge.DirectField):
// Octgrav or Fi.
type FieldModel struct {
	*modelProxy
	kernelName string
}

// FieldOptions configure NewField.
type FieldOptions struct {
	Kernel string  // "octgrav" (GPU) or "fi" (CPU, default)
	Theta  float64 // opening angle
	Eps    float64 // coupling softening
}

// NewField starts a coupling worker.
func (s *Simulation) NewField(ctx context.Context, spec WorkerSpec, opt FieldOptions) (*FieldModel, error) {
	if opt.Kernel == "" {
		opt.Kernel = "fi"
	}
	spec.Kernel = opt.Kernel
	m, err := s.newModel(ctx, KindField, spec, kernel.SetupFieldArgs{
		Kernel: opt.Kernel, Theta: opt.Theta, Eps: opt.Eps,
	})
	if err != nil {
		return nil, err
	}
	return &FieldModel{modelProxy: m, kernelName: opt.Kernel}, nil
}

// Name implements bridge.Field.
func (f *FieldModel) Name() string { return f.kernelName }

// fieldCall is the pending field evaluation behind GoFieldAt.
type fieldCall struct {
	call *Call
	n    int
}

// Wait implements bridge.FieldCall.
func (fc fieldCall) Wait(ctx context.Context) ([]data.Vec3, []float64, float64, error) {
	var out kernel.FieldAtResult
	if err := fc.call.Wait(ctx); err != nil {
		return make([]data.Vec3, fc.n), make([]float64, fc.n), 0, err
	}
	if err := fc.call.Decode(&out); err != nil {
		return make([]data.Vec3, fc.n), make([]float64, fc.n), 0, err
	}
	return out.Acc, out.Pot, 0, nil
}

// GoFieldAt issues a field evaluation of sampled columns without waiting;
// FieldAt waits on it. The eps argument is fixed at setup; the worker
// applies the configured one.
func (f *FieldModel) GoFieldAt(srcMass []float64, srcPos, targets []data.Vec3, eps float64) bridge.FieldCall {
	c := f.Go("field_at", kernel.FieldAtArgs{SrcMass: srcMass, SrcPos: srcPos, Targets: targets})
	return fieldCall{call: c, n: len(targets)}
}

// FieldAt implements bridge.Field (errors are sticky; see Err).
func (f *FieldModel) FieldAt(ctx context.Context, srcMass []float64, srcPos, targets []data.Vec3, eps float64) ([]data.Vec3, []float64, float64) {
	acc, pot, flops, err := f.GoFieldAt(srcMass, srcPos, targets, eps).Wait(f.sessionCtx(ctx))
	if err != nil {
		return make([]data.Vec3, len(targets)), make([]float64, len(targets)), 0
	}
	return acc, pot, flops
}

// Model is the generic coupler-side handle for a worker of any registered
// kind. Kinds added outside internal/core (one package + one import, no
// core edits) get the full channel stack — worker start-up, replacement,
// virtual-time accounting, the asynchronous Go/Call pair and the batched
// GetState/SetState path — through this handle; a typed wrapper like
// Gravity is optional sugar.
type Model struct {
	*modelProxy
}

// NewModel starts a worker of the given kind and performs its "setup"
// call with the provided arguments (a plain struct, see kernel.Encode).
func (s *Simulation) NewModel(ctx context.Context, kind Kind, spec WorkerSpec, setup any) (*Model, error) {
	m, err := s.newModel(ctx, kind, spec, setup)
	if err != nil {
		return nil, err
	}
	return &Model{modelProxy: m}, nil
}
