// Package exp implements the paper's evaluation (§6): one runner per table
// or figure, each returning a report with the same rows/series the paper
// shows. The experiment index and measured-vs-paper notes live in
// DESIGN.md. cmd/jungle-bench executes these runners from the command
// line and bench_test.go wraps them as Go benchmarks.
package exp

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"strings"
	"time"

	"jungle/internal/amuse/data"
	"jungle/internal/amuse/ic"
	"jungle/internal/core"
	"jungle/internal/phys/bridge"
	"jungle/internal/trace"

	// The experiment runners start workers of all four standard kinds.
	_ "jungle/internal/kernels"
)

// Workload is the embedded-star-cluster evaluation simulation (§6: "For
// all our experiments, we use the same simulation").
type Workload struct {
	Stars   int
	Gas     int
	GasFrac float64
	Seed    int64
	DT      float64
	Eps     float64
}

// DefaultWorkload is the calibrated E1 scale: 1000 stars + 10000 SPH gas
// particles, bridge step 1/64.
func DefaultWorkload() Workload {
	return Workload{Stars: 1000, Gas: 10000, GasFrac: 0.9, Seed: 42, DT: 1.0 / 64, Eps: 0.05}
}

// Scaled returns the workload with particle counts scaled by f (tests use
// small fractions; E8 uses >1).
func (w Workload) Scaled(f float64) Workload {
	w.Stars = max(int(float64(w.Stars)*f), 10)
	w.Gas = max(int(float64(w.Gas)*f), 20)
	return w
}

// Build generates the initial conditions.
func (w Workload) Build() (stars, gas *data.Particles, err error) {
	return ic.EmbeddedCluster(ic.ClusterSpec{
		Stars: w.Stars, Gas: w.Gas, GasFrac: w.GasFrac, Seed: w.Seed,
	})
}

// Placement assigns each model to a resource + channel — one §6.2 scenario.
type Placement struct {
	Name          string
	Gravity       core.WorkerSpec
	GravityKernel string
	Hydro         core.WorkerSpec
	Field         core.WorkerSpec
	FieldKernel   string
	Stellar       core.WorkerSpec
}

// scenario helpers build the four §6.2 placements against a testbed.
func local(resource string) core.WorkerSpec {
	return core.WorkerSpec{Resource: resource, Channel: core.ChannelMPI}
}
func remote(resource string, nodes int) core.WorkerSpec {
	return core.WorkerSpec{Resource: resource, Nodes: nodes, Channel: core.ChannelIbis}
}

// LabScenarios returns the §6.2 scenarios in paper order for a lab testbed.
func LabScenarios(tb *core.Testbed) []Placement {
	desktop := tb.Client
	return []Placement{
		{
			Name:    "cpu-only",
			Gravity: local(desktop), GravityKernel: "phigrape-cpu",
			Hydro: local(desktop),
			Field: local(desktop), FieldKernel: "fi",
			Stellar: local(desktop),
		},
		{
			Name:    "local-gpu",
			Gravity: local(desktop), GravityKernel: "phigrape-gpu",
			Hydro: local(desktop),
			Field: local(desktop), FieldKernel: "octgrav",
			Stellar: local(desktop),
		},
		{
			Name:    "remote-gpu",
			Gravity: local(desktop), GravityKernel: "phigrape-gpu",
			Hydro: local(desktop),
			Field: remote(tb.LGM, 1), FieldKernel: "octgrav",
			Stellar: local(desktop),
		},
		{
			Name:    "jungle",
			Gravity: remote(tb.LGM, 1), GravityKernel: "phigrape-gpu",
			Hydro: remote(tb.VU, 8),
			Field: remote(tb.TUD, 2), FieldKernel: "octgrav",
			Stellar: remote(tb.UvA, 1),
		},
	}
}

// SC11Placement is the Fig. 9 worst case: coupler in Seattle, every model
// in The Netherlands.
func SC11Placement(tb *core.Testbed) Placement {
	p := LabScenarios(tb)[3]
	p.Name = "sc11-worst-case"
	return p
}

// AutoPlacement leaves every model's resource open for the control
// plane's capacity-aware placer to resolve (CPU kernels, ibis channel
// throughout, so any resource fits). Multi-tenant runs use it: pinned
// placements would pile every session onto the same resources, while
// open specs spread by load.
func AutoPlacement() Placement {
	open := core.WorkerSpec{Channel: core.ChannelIbis}
	return Placement{
		Name:    "scheduler-placed",
		Gravity: open, GravityKernel: "phigrape-cpu",
		Hydro: open,
		Field: open, FieldKernel: "fi",
		Stellar: open,
	}
}

// RunResult is one measured scenario.
type RunResult struct {
	Scenario     string
	Iterations   int
	PerIteration time.Duration // virtual seconds per bridge iteration
	Setup        time.Duration // virtual time to start all workers
	Supernovae   int
	// Transfers counts how the coupled steps moved bulk state: Direct is
	// the worker-to-worker data plane, Hairpin the coupler path (local
	// workers), Fallback a direct attempt that failed over.
	Transfers core.TransferStats
	// StateDigest is an FNV-1a hash of the star model's final positions
	// and velocities (bit patterns, in particle order): two runs ended in
	// the same state iff their digests match — the observable the
	// checkpoint/resume bit-compatibility guarantee is checked against.
	StateDigest uint64
	// Calls summarizes the channel-layer telemetry this run added to the
	// testbed's observability plane: RPC count, error count and latency
	// quantiles (zero when the testbed records nothing).
	Calls trace.CallSummary
}

// scenarioBridge bundles one placement's running models and their bridge.
type scenarioBridge struct {
	sim    *core.Simulation
	bridge *bridge.Bridge
	grav   *core.Gravity // the star model, for end-of-run state digests
}

// stateDigest hashes the gravity model's phase-space state (FNV-1a over
// the position and velocity bit patterns). A read failure is an error,
// not a zero digest — callers must not mistake "could not read the final
// state" for a comparable value.
func (sb *scenarioBridge) stateDigest() (uint64, error) {
	st, err := sb.grav.GetState(nil, data.AttrPos, data.AttrVel)
	if err != nil {
		return 0, fmt.Errorf("exp: end-of-run state digest: %w", err)
	}
	h := fnv.New64a()
	var buf [8]byte
	mix := func(x float64) {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(x))
		h.Write(buf[:])
	}
	for _, col := range [][]data.Vec3{st.Vec(data.AttrPos), st.Vec(data.AttrVel)} {
		for _, v := range col {
			mix(v[0])
			mix(v[1])
			mix(v[2])
		}
	}
	return h.Sum64(), nil
}

// bridgeConfig is the evaluation simulation's fixed coupling parameters.
func bridgeConfig(w Workload, g *core.Gravity, h *core.Hydro, f *core.FieldModel, st *core.StellarModel) bridge.Config {
	return bridge.Config{
		Stars: g, Gas: h, Coupler: f, Stellar: st,
		DT: w.DT, Eps: w.Eps, StellarEvery: 4,
		SNEnergy: 0.1, SNRadius: 0.3,
	}
}

// startScenario builds the four models under a placement and assembles
// the bridge (fresh initial conditions, no restored state).
func startScenario(ctx context.Context, tb *core.Testbed, w Workload, p Placement) (*scenarioBridge, error) {
	return startScenarioOn(ctx, core.NewSimulation(ctx, tb.Daemon, nil), w, p)
}

// startScenarioOn is startScenario on a caller-provided simulation — the
// session path, where the control plane binds the simulation to a tenant
// (namespace, accounting, placement policy) before the models start. On
// failure the simulation is stopped.
func startScenarioOn(ctx context.Context, sim *core.Simulation, w Workload, p Placement) (*scenarioBridge, error) {
	stars, gas, err := w.Build()
	if err != nil {
		sim.Stop()
		return nil, err
	}
	fail := func(err error) (*scenarioBridge, error) {
		sim.Stop()
		return nil, err
	}
	g, err := sim.NewGravity(ctx, p.Gravity, core.GravityOptions{Kernel: p.GravityKernel, Eps: 0.01})
	if err != nil {
		return fail(fmt.Errorf("gravity: %w", err))
	}
	if err := g.SetParticles(stars); err != nil {
		return fail(err)
	}
	h, err := sim.NewHydro(ctx, p.Hydro, core.HydroOptions{SelfGravity: true, EpsGrav: 0.01})
	if err != nil {
		return fail(fmt.Errorf("hydro: %w", err))
	}
	if err := h.SetParticles(gas); err != nil {
		return fail(err)
	}
	f, err := sim.NewField(ctx, p.Field, core.FieldOptions{Kernel: p.FieldKernel, Eps: w.Eps})
	if err != nil {
		return fail(fmt.Errorf("field: %w", err))
	}
	// The workload's IMF masses are in N-body units; recover MSun values by
	// anchoring the smallest sampled star at the IMF's 0.3 MSun lower bound
	// (EmbeddedCluster normalizes total mass away, so the anchor restores
	// the physical scale).
	minMass := stars.Mass[0]
	for _, m := range stars.Mass {
		if m < minMass {
			minMass = m
		}
	}
	msunPerNBody := 0.3 / minMass
	masses := make([]float64, stars.Len())
	for i := range masses {
		masses[i] = stars.Mass[i] * msunPerNBody
	}
	st, err := sim.NewStellar(ctx, p.Stellar, masses, 2.0 /* Myr per unit */, 1/msunPerNBody)
	if err != nil {
		return fail(fmt.Errorf("stellar: %w", err))
	}
	br, err := bridge.New(bridgeConfig(w, g, h, f, st))
	if err != nil {
		return fail(err)
	}
	return &scenarioBridge{sim: sim, bridge: br, grav: g}, nil
}

// RunScenario executes the workload under a placement on the testbed and
// measures virtual per-iteration time, mirroring §6.2's methodology ("we
// ran a single iteration (time step) of the simulation"). ctx bounds the
// whole run — worker startup, state uploads and every bridge iteration
// (nil means no deadline).
func RunScenario(ctx context.Context, tb *core.Testbed, w Workload, p Placement, iterations int) (RunResult, error) {
	before := tb.Recorder.CallsSnapshot()
	sb, err := startScenario(ctx, tb, w, p)
	if err != nil {
		return RunResult{}, err
	}
	defer sb.sim.Stop()
	setup := sb.sim.Elapsed()
	for i := 0; i < iterations; i++ {
		if err := sb.bridge.Step(ctx); err != nil {
			return RunResult{}, fmt.Errorf("scenario %s iteration %d: %w", p.Name, i, err)
		}
	}
	res, err := sb.result(p.Name, iterations, setup)
	// A shared testbed serves many runs; the snapshot diff isolates this
	// one's calls from whatever the recorder held before.
	res.Calls = trace.DiffCalls(before, tb.Recorder.CallsSnapshot())
	return res, err
}

// result reads a finished run off the bridge; the time per iteration is
// taken before the digest's read moves the coupler's clock.
func (sb *scenarioBridge) result(name string, iterations int, setup time.Duration) (RunResult, error) {
	total := sb.sim.Elapsed() - setup
	digest, err := sb.stateDigest()
	if err != nil {
		return RunResult{}, err
	}
	per := time.Duration(0)
	if iterations > 0 {
		per = total / time.Duration(iterations)
	}
	return RunResult{
		Scenario:     name,
		Iterations:   iterations,
		PerIteration: per,
		Setup:        setup,
		Supernovae:   sb.bridge.Supernovae(),
		Transfers:    sb.sim.TransferStats(),
		StateDigest:  digest,
	}, nil
}

// Table renders rows of (scenario, paper, measured) with a ratio column.
func Table(title string, headers []string, rows [][]string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s ==\n", title)
	widths := make([]int, len(headers))
	for i, h := range headers {
		widths[i] = len(h)
	}
	for _, r := range rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			fmt.Fprintf(&b, "%-*s  ", widths[i], c)
		}
		b.WriteString("\n")
	}
	line(headers)
	for _, r := range rows {
		line(r)
	}
	return b.String()
}
