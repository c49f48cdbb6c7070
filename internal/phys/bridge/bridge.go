// Package bridge implements the paper's Fig. 7 coupled integrator: the
// AMUSE gravitational/hydro/stellar solver for the embedded-star-cluster
// simulation (Pelupessy & Portegies Zwart 2011). Per bridge step the gas and
// stellar-dynamics models receive half-step cross-gravity kicks ("p-kicks",
// computed by the coupling model — Octgrav or Fi), evolve independently in
// parallel, and receive the closing half-kick; stellar evolution runs at a
// slower cadence, every n-th step, feeding mass loss back into the dynamics
// and injecting supernova energy into the gas.
//
// The integrator is latency-aware in the way the paper's distributed AMUSE
// daemon is: every model method takes a context, and models that expose the
// asynchronous interfaces (AsyncDynamics, DirectField — core's remote worker
// proxies do) have their per-phase calls issued to all models before the
// bridge waits on any of them. A kick phase over K remote models then costs
// about one wide-area round trip instead of K.
package bridge

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"jungle/internal/amuse/data"
)

// Dynamics is the contract the bridge needs from a dynamical model (the
// nbody and sph systems implement it; the core package's remote-worker
// proxies implement it over RPC). The context bounds the call: in-process
// models poll it between integration steps, remote proxies use it to
// abort the wait on an in-flight RPC.
type Dynamics interface {
	// EvolveTo advances the model to the given model time.
	EvolveTo(ctx context.Context, t float64) error
	// Kick applies per-particle velocity increments.
	Kick(ctx context.Context, dv []data.Vec3) error
	// Positions returns current positions (length N).
	Positions() []data.Vec3
	// Masses returns current masses (length N).
	Masses() []float64
	// N returns the particle count.
	N() int
}

// Waiter is a pending asynchronous operation — the future half of the
// coupler's split-phase calls (*core.Call satisfies it).
type Waiter interface {
	// Wait blocks until the operation completes or ctx is done. A context
	// error abandons only the wait: the operation itself stays in flight
	// and its resources are reclaimed when it eventually completes.
	Wait(ctx context.Context) error
}

// AsyncDynamics is implemented by dynamics models whose calls can be
// issued without waiting (core's remote worker proxies). The bridge uses
// it to put every model's kick and evolve on the wire before waiting, so
// wide-area latency is paid once per phase, not once per model.
type AsyncDynamics interface {
	Dynamics
	GoEvolveTo(t float64) Waiter
	GoKick(dv []data.Vec3) Waiter
}

// MassSettable is implemented by dynamics models that accept external mass
// updates (stellar mass loss).
type MassSettable interface {
	SetMass(i int, m float64)
}

// EnergyInjector is implemented by gas models that accept supernova
// feedback.
type EnergyInjector interface {
	InjectEnergy(center data.Vec3, radius, e float64) int
}

// Field is the coupling model: it evaluates the gravitational field of a
// source set at target points (tree.Kernel implements it).
type Field interface {
	Name() string
	FieldAt(ctx context.Context, srcMass []float64, srcPos, targets []data.Vec3, eps float64) ([]data.Vec3, []float64, float64)
}

// FieldCall is a pending field evaluation.
type FieldCall interface {
	Wait(ctx context.Context) (acc []data.Vec3, pot []float64, flops float64, err error)
}

// DirectField is implemented by coupling models that can pull both field
// inputs straight from the peer models' workers over a direct data plane
// (core's FieldModel): the source columns and target positions move
// worker-to-worker, and the bridge never samples them into the coupler —
// a kick phase stops hairpinning bulk state through the user's machine.
// Implementations fall back internally when a peer path is unavailable,
// so the bridge may always prefer this interface.
type DirectField interface {
	Field
	// GoFieldDirect evaluates the field of src's particles at tgt's
	// positions, staging both inputs on the coupling worker.
	GoFieldDirect(src, tgt Dynamics) FieldCall
}

// StellarEvent describes a supernova delivered to the bridge.
type StellarEvent struct {
	Index    int     // star index
	MassLoss float64 // N-body mass lost this update
	SN       bool
}

// Stellar is the contract for the stellar-evolution model: advance to a
// model time (bridge units) and report per-star mass loss and supernovae.
type Stellar interface {
	EvolveTo(ctx context.Context, t float64) ([]StellarEvent, error)
}

// Config assembles a Bridge.
type Config struct {
	Stars   Dynamics
	Gas     Dynamics // optional
	Coupler Field    // required when Gas is present
	Stellar Stellar  // optional

	// DT is the bridge (coupling) timestep in N-body time units.
	DT float64
	// Eps is the coupling softening.
	Eps float64
	// StellarEvery runs stellar evolution every n-th bridge step (Fig. 7's
	// "slower rate"; default 4).
	StellarEvery int
	// SNEnergy is the thermal energy injected per supernova (N-body units).
	SNEnergy float64
	// SNRadius is the deposition radius around the exploding star.
	SNRadius float64
	// Trace receives the integrator call sequence (E6/Fig. 7 validation);
	// may be nil.
	Trace func(call string)
}

// Bridge is the coupled integrator.
type Bridge struct {
	cfg   Config
	time  float64
	steps int

	supernovae int
}

// Errors.
var (
	ErrNoStars   = errors.New("bridge: stars model required")
	ErrNoCoupler = errors.New("bridge: coupler required when gas is present")
	ErrBadDT     = errors.New("bridge: DT must be positive")
)

// New validates the configuration and returns a Bridge.
func New(cfg Config) (*Bridge, error) {
	if cfg.Stars == nil {
		return nil, ErrNoStars
	}
	if cfg.DT <= 0 {
		return nil, ErrBadDT
	}
	if cfg.Gas != nil && cfg.Gas.N() > 0 && cfg.Coupler == nil {
		return nil, ErrNoCoupler
	}
	if cfg.StellarEvery <= 0 {
		cfg.StellarEvery = 4
	}
	if cfg.SNRadius <= 0 {
		cfg.SNRadius = 0.2
	}
	return &Bridge{cfg: cfg}, nil
}

// Time returns the bridge model time.
func (b *Bridge) Time() float64 { return b.time }

// Steps returns completed bridge steps.
func (b *Bridge) Steps() int { return b.steps }

// Supernovae returns the cumulative supernova count seen by the bridge.
func (b *Bridge) Supernovae() int { return b.supernovae }

// RestoreClock rewinds (or forwards) the bridge's integration bookkeeping
// to a checkpoint's values: model time, completed step count and the
// cumulative supernova tally. The models themselves are restored
// separately (core's checkpoint/restore subsystem); with both in place a
// resumed coupled run continues bit-compatibly — the next Step picks up
// the stellar cadence exactly where the killed run left it.
func (b *Bridge) RestoreClock(t float64, steps, supernovae int) {
	b.time = t
	b.steps = steps
	b.supernovae = supernovae
}

func (b *Bridge) trace(format string, args ...any) {
	if b.cfg.Trace != nil {
		b.cfg.Trace(fmt.Sprintf(format, args...))
	}
}

func (b *Bridge) hasGas() bool { return b.cfg.Gas != nil && b.cfg.Gas.N() > 0 }

// sample reads a dynamical model's field inputs (two RPCs when remote).
type sample struct {
	mass []float64
	pos  []data.Vec3
}

// sampleBoth fetches both models' masses and positions concurrently — one
// goroutine per model, so two remote models answer in parallel. The
// read-only getters are session-scoped by the Dynamics interface, so a
// per-step context cannot abort this sampling phase; Step documents the
// limitation.
func sampleBoth(stars, gas Dynamics) (ss, gs sample) {
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		ss = sample{mass: stars.Masses(), pos: stars.Positions()}
	}()
	go func() {
		defer wg.Done()
		gs = sample{mass: gas.Masses(), pos: gas.Positions()}
	}()
	wg.Wait()
	return ss, gs
}

// kick applies half-step cross-gravity kicks in both directions — the
// "p-kick" boxes of Fig. 7. Both field evaluations, then both kicks, are
// in flight before the bridge waits on either.
func (b *Bridge) kick(ctx context.Context, dt float64) error {
	if !b.hasGas() {
		return nil
	}
	stars, gas, cpl := b.cfg.Stars, b.cfg.Gas, b.cfg.Coupler
	if err := ctx.Err(); err != nil {
		return err
	}

	var accS, accG []data.Vec3
	if dcpl, ok := cpl.(DirectField); ok {
		// Direct data plane: both directions' inputs move worker-to-worker
		// (gas state to the coupling worker, star positions likewise) and
		// the coupler never holds the columns — the bulk never crosses the
		// user's uplink.
		b.trace("coupler.field gas->stars (%s, direct)", cpl.Name())
		c1 := dcpl.GoFieldDirect(gas, stars)
		b.trace("coupler.field stars->gas (%s, direct)", cpl.Name())
		c2 := dcpl.GoFieldDirect(stars, gas)
		var err1, err2 error
		accS, _, _, err1 = c1.Wait(ctx)
		accG, _, _, err2 = c2.Wait(ctx)
		if err1 != nil {
			return fmt.Errorf("bridge: field gas->stars: %w", err1)
		}
		if err2 != nil {
			return fmt.Errorf("bridge: field stars->gas: %w", err2)
		}
	} else {
		ss, gs := sampleBoth(stars, gas)
		b.trace("coupler.field gas->stars (%s)", cpl.Name())
		accS, _, _ = cpl.FieldAt(ctx, gs.mass, gs.pos, ss.pos, b.cfg.Eps)
		b.trace("coupler.field stars->gas (%s)", cpl.Name())
		accG, _, _ = cpl.FieldAt(ctx, ss.mass, ss.pos, gs.pos, b.cfg.Eps)
	}

	for i := range accS {
		accS[i] = accS[i].Scale(dt)
	}
	for i := range accG {
		accG[i] = accG[i].Scale(dt)
	}

	as, aok := stars.(AsyncDynamics)
	ag, gok := gas.(AsyncDynamics)
	if aok && gok {
		b.trace("stars.kick dt=%g", dt)
		ws := as.GoKick(accS)
		b.trace("gas.kick dt=%g", dt)
		wg := ag.GoKick(accG)
		if err := ws.Wait(ctx); err != nil {
			return fmt.Errorf("bridge: star kick: %w", err)
		}
		if err := wg.Wait(ctx); err != nil {
			return fmt.Errorf("bridge: gas kick: %w", err)
		}
		return nil
	}
	b.trace("stars.kick dt=%g", dt)
	if err := stars.Kick(ctx, accS); err != nil {
		return fmt.Errorf("bridge: star kick: %w", err)
	}
	b.trace("gas.kick dt=%g", dt)
	if err := gas.Kick(ctx, accG); err != nil {
		return fmt.Errorf("bridge: gas kick: %w", err)
	}
	return nil
}

// evolve advances both models to time t concurrently — the parallel
// "evolve" circles of Fig. 7. Async-capable pairs are pipelined (both
// evolve calls on the wire before waiting); plain models fall back to one
// goroutine each.
func (b *Bridge) evolve(ctx context.Context, t float64) error {
	if !b.hasGas() {
		b.trace("stars.evolve t=%g", t)
		return b.cfg.Stars.EvolveTo(ctx, t)
	}
	b.trace("stars.evolve t=%g || gas.evolve t=%g", t, t)
	var errS, errG error
	as, aok := b.cfg.Stars.(AsyncDynamics)
	ag, gok := b.cfg.Gas.(AsyncDynamics)
	if aok && gok {
		ws, wg := as.GoEvolveTo(t), ag.GoEvolveTo(t)
		errS, errG = ws.Wait(ctx), wg.Wait(ctx)
	} else {
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			errS = b.cfg.Stars.EvolveTo(ctx, t)
		}()
		go func() {
			defer wg.Done()
			errG = b.cfg.Gas.EvolveTo(ctx, t)
		}()
		wg.Wait()
	}
	if errS != nil {
		return fmt.Errorf("bridge: star evolve: %w", errS)
	}
	if errG != nil {
		return fmt.Errorf("bridge: gas evolve: %w", errG)
	}
	return nil
}

// stellarUpdate runs stellar evolution to the current bridge time and
// pushes mass loss and supernova feedback into the dynamical models.
func (b *Bridge) stellarUpdate(ctx context.Context) error {
	if b.cfg.Stellar == nil {
		return nil
	}
	b.trace("stellar.evolve t=%g", b.time)
	events, err := b.cfg.Stellar.EvolveTo(ctx, b.time)
	if err != nil {
		return fmt.Errorf("bridge: stellar evolve: %w", err)
	}
	ms, settable := b.cfg.Stars.(MassSettable)
	masses := b.cfg.Stars.Masses()
	positions := b.cfg.Stars.Positions()
	injector, canInject := b.cfg.Gas.(EnergyInjector)
	for _, ev := range events {
		if ev.Index < 0 || ev.Index >= len(masses) {
			return fmt.Errorf("bridge: stellar event index %d out of range", ev.Index)
		}
		if ev.MassLoss > 0 && settable {
			b.trace("stars.set_mass i=%d dm=%g", ev.Index, ev.MassLoss)
			ms.SetMass(ev.Index, masses[ev.Index]-ev.MassLoss)
		}
		if ev.SN {
			b.supernovae++
			if b.hasGas() && canInject && b.cfg.SNEnergy > 0 {
				b.trace("gas.inject_energy i=%d e=%g", ev.Index, b.cfg.SNEnergy)
				injector.InjectEnergy(positions[ev.Index], b.cfg.SNRadius, b.cfg.SNEnergy)
			}
		}
	}
	return nil
}

// Step advances the coupled system by one bridge step DT: the Fig. 7
// sequence kick(dt/2) → parallel evolve(dt) → kick(dt/2), with stellar
// evolution every StellarEvery-th step. The context cancels or bounds
// every mutating call of the step; a context error leaves the models
// consistent with the last completed phase. One caveat: the kick phase's
// read-only state sampling (Masses/Positions) runs under each model's
// session context — a per-step deadline takes effect from the first
// field evaluation onward.
func (b *Bridge) Step(ctx context.Context) error {
	if ctx == nil {
		ctx = context.Background()
	}
	dt := b.cfg.DT
	b.trace("bridge.step t=%g", b.time)
	if err := b.kick(ctx, dt/2); err != nil {
		return err
	}
	if err := b.evolve(ctx, b.time+dt); err != nil {
		return err
	}
	if err := b.kick(ctx, dt/2); err != nil {
		return err
	}
	b.time += dt
	b.steps++
	if b.steps%b.cfg.StellarEvery == 0 {
		if err := b.stellarUpdate(ctx); err != nil {
			return err
		}
	}
	return nil
}

// EvolveTo runs bridge steps until the model time reaches t (the last step
// may overshoot by less than DT; bridge steps are fixed-size as in Fig. 7).
func (b *Bridge) EvolveTo(ctx context.Context, t float64) error {
	if ctx == nil {
		ctx = context.Background()
	}
	for b.time < t-1e-15 {
		if err := b.Step(ctx); err != nil {
			return err
		}
	}
	return nil
}

// CrossPotential returns the star↔gas interaction energy Σ m_i φ_gas(x_i),
// used by the energy diagnostics.
func (b *Bridge) CrossPotential(ctx context.Context) float64 {
	if !b.hasGas() {
		return 0
	}
	if ctx == nil {
		ctx = context.Background()
	}
	stars, gas := b.cfg.Stars, b.cfg.Gas
	_, pot, _ := b.cfg.Coupler.FieldAt(ctx, gas.Masses(), gas.Positions(), stars.Positions(), b.cfg.Eps)
	var u float64
	masses := stars.Masses()
	for i := range pot {
		u += masses[i] * pot[i]
	}
	return u
}
