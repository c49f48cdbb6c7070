package sph

import (
	"context"
	"errors"
	"fmt"
	"math"
	stdtime "time"

	"jungle/internal/amuse/data"
	"jungle/internal/mpisim"
	"jungle/internal/phys/tree"
	"jungle/internal/vtime"
)

// Flop cost constants per neighbor interaction.
const (
	flopsPerDensityPair = 40
	flopsPerForcePair   = 90
)

// ErrNoGas is returned when evolving an empty gas system.
var ErrNoGas = errors.New("sph: no particles")

// Gas is a Gadget-equivalent SPH system in N-body units (G=1).
type Gas struct {
	// Gamma is the adiabatic index (default 5/3).
	Gamma float64
	// Alpha, Beta are Monaghan viscosity parameters (defaults 1, 2).
	Alpha, Beta float64
	// CFL is the Courant factor (default 0.25).
	CFL float64
	// NTarget is the desired neighbor count for adaptive h (default 50).
	NTarget int
	// SelfGravity enables tree self-gravity (default true).
	SelfGravity bool
	// EpsGrav is the gravitational softening (default 0.01).
	EpsGrav float64
	// Theta is the gravity tree opening angle (default 0.6).
	Theta float64
	// DtMax caps the timestep.
	DtMax float64
	// HMin and HMax clamp smoothing lengths.
	HMin, HMax float64

	time float64
	mass []float64
	pos  []data.Vec3
	vel  []data.Vec3
	u    []float64
	h    []float64
	rho  []float64
	prs  []float64
	cs   []float64

	flops float64
	steps int

	// Sharded-evolution state: explicit slab boundaries from the
	// elastic-gang rebalancer (nil = uniform) and the per-rank slab
	// compute-time accumulator behind the rank_load query.
	cuts        []int
	loadCompute stdtime.Duration
}

// SetCuts installs explicit slab boundaries for sharded evolution (the
// elastic-gang reshard hook); nil restores the uniform decomposition.
// The SPH exchanges allgather variable-length rank slabs in rank order,
// so only the local row ranges change — results are unaffected.
func (g *Gas) SetCuts(cuts []int, size int) error {
	if cuts == nil {
		g.cuts = nil
		return nil
	}
	if err := mpisim.ValidCuts(cuts, len(g.mass), size); err != nil {
		return fmt.Errorf("sph: reshard: %w", err)
	}
	g.cuts = append([]int(nil), cuts...)
	return nil
}

// cutsFor returns the installed cuts when they match the communicator
// size (gang ranks); a multi-node World of a different size keeps the
// uniform decomposition.
func (g *Gas) cutsFor(size int) []int {
	if len(g.cuts) == size+1 {
		return g.cuts
	}
	return nil
}

// TakeLoad returns this rank's current slab width and the virtual
// compute time accumulated by slab work since the previous call,
// resetting the accumulator (the rank_load query).
func (g *Gas) TakeLoad(rank, size int) (rows int, compute stdtime.Duration) {
	lo, hi := mpisim.CutRange(g.cutsFor(size), rank, len(g.mass), size)
	compute = g.loadCompute
	g.loadCompute = 0
	return hi - lo, compute
}

// New returns an empty gas system with default parameters.
func New() *Gas {
	return &Gas{
		Gamma: 5.0 / 3.0, Alpha: 1, Beta: 2, CFL: 0.25, NTarget: 50,
		SelfGravity: true, EpsGrav: 0.01, Theta: 0.6, DtMax: 1.0 / 64,
		HMin: 1e-4, HMax: 10,
	}
}

// SetParticles loads gas state from a particle set. Particles must carry
// positive InternalEnergy and SmoothingLen.
func (g *Gas) SetParticles(p *data.Particles) error {
	for i := 0; i < p.Len(); i++ {
		if p.InternalEnergy[i] <= 0 {
			return fmt.Errorf("sph: particle %d has non-positive internal energy", i)
		}
		if p.SmoothingLen[i] <= 0 {
			return fmt.Errorf("sph: particle %d has non-positive smoothing length", i)
		}
	}
	n := p.Len()
	g.mass = append(g.mass[:0], p.Mass...)
	g.pos = append(g.pos[:0], p.Pos...)
	g.vel = append(g.vel[:0], p.Vel...)
	g.u = append(g.u[:0], p.InternalEnergy...)
	g.h = append(g.h[:0], p.SmoothingLen...)
	g.rho = make([]float64, n)
	g.prs = make([]float64, n)
	g.cs = make([]float64, n)
	return nil
}

// GetParticles writes gas state back to a set of matching size.
func (g *Gas) GetParticles(p *data.Particles) error {
	if p.Len() != len(g.mass) {
		return fmt.Errorf("sph: set has %d particles, system has %d", p.Len(), len(g.mass))
	}
	copy(p.Mass, g.mass)
	copy(p.Pos, g.pos)
	copy(p.Vel, g.vel)
	copy(p.InternalEnergy, g.u)
	copy(p.SmoothingLen, g.h)
	copy(p.Density, g.rho)
	return nil
}

// N returns the particle count.
func (g *Gas) N() int { return len(g.mass) }

// Time returns the model time.
func (g *Gas) Time() float64 { return g.time }

// Steps returns the number of steps taken.
func (g *Gas) Steps() int { return g.steps }

// RestoreClock rewinds (or forwards) the model clock and step count to a
// checkpoint's values. The caller must have restored mass/pos/vel/u/h
// first; density, pressure and sound speed are recomputed at the start of
// the next step, so a restored system continues bit-identically to the
// run that took the snapshot.
func (g *Gas) RestoreClock(t float64, steps int) {
	g.time = t
	g.steps = steps
}

// Flops returns accumulated accounted flops (per-rank work is accounted on
// each rank's clock when run under a world; this counter is the total).
func (g *Gas) Flops() float64 { return g.flops }

// ResetFlops zeroes the counter and returns the prior value.
func (g *Gas) ResetFlops() float64 {
	f := g.flops
	g.flops = 0
	return f
}

// Positions exposes internal positions (for coupling field evaluation).
func (g *Gas) Positions() []data.Vec3 { return g.pos }

// Velocities exposes internal velocities.
func (g *Gas) Velocities() []data.Vec3 { return g.vel }

// Masses exposes internal masses.
func (g *Gas) Masses() []float64 { return g.mass }

// Kick applies external velocity increments (BRIDGE coupling). The kick
// is a single cheap pass; the context is only checked on entry.
func (g *Gas) Kick(ctx context.Context, dv []data.Vec3) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if len(dv) != len(g.vel) {
		return fmt.Errorf("sph: kick length %d != N %d", len(dv), len(g.mass))
	}
	for i := range g.vel {
		g.vel[i] = g.vel[i].Add(dv[i])
	}
	return nil
}

// InjectEnergy deposits total thermal energy e (N-body units) into the gas
// particles within radius of center, shared mass-weighted — the supernova
// feedback that drives the paper's gas expulsion (Fig. 6). If no particle
// lies inside the radius, the nearest particle receives everything. Returns
// the number of particles heated.
func (g *Gas) InjectEnergy(center data.Vec3, radius, e float64) int {
	if len(g.mass) == 0 || e <= 0 {
		return 0
	}
	var idx []int
	for i := range g.pos {
		if g.pos[i].Sub(center).Norm() <= radius {
			idx = append(idx, i)
		}
	}
	if len(idx) == 0 {
		best, bestD := 0, math.Inf(1)
		for i := range g.pos {
			if d := g.pos[i].Sub(center).Norm(); d < bestD {
				best, bestD = i, d
			}
		}
		idx = []int{best}
	}
	var mTot float64
	for _, i := range idx {
		mTot += g.mass[i]
	}
	for _, i := range idx {
		g.u[i] += e / mTot // specific energy: each particle gets e·(m_i/mTot)/m_i
	}
	return len(idx)
}

// Energy returns (kinetic, thermal, potential) energies. Potential is zero
// unless SelfGravity is on.
func (g *Gas) Energy() (kin, therm, pot float64) {
	for i := range g.mass {
		kin += 0.5 * g.mass[i] * g.vel[i].Norm2()
		therm += g.mass[i] * g.u[i]
	}
	if g.SelfGravity && len(g.mass) > 1 {
		tr := tree.Build(g.mass, g.pos)
		acc := make([]data.Vec3, len(g.mass))
		p := make([]float64, len(g.mass))
		g.flops += tr.Accel(g.pos, g.EpsGrav, g.Theta, acc, p)
		for i := range g.mass {
			pot += 0.5 * g.mass[i] * p[i]
		}
	}
	return kin, therm, pot
}

// EvolveTo advances the gas serially to time t. The context is polled
// between SPH steps, so cancellation aborts a long integration at the
// next step boundary.
func (g *Gas) EvolveTo(ctx context.Context, t float64) error {
	return g.evolve(ctx, t, nil, nil, true)
}

// EvolveToParallel advances the gas to time t data-parallel over the world:
// each rank computes a slab of the density and force loops, exchanges
// results via allgathers (recorded as "mpi" traffic) and accounts its share
// of the compute on its own clock against dev. The goroutine ranks share
// this one Gas; rank 0 publishes the (bitwise identical) result.
func (g *Gas) EvolveToParallel(ctx context.Context, t float64, w *mpisim.World, dev *vtime.Device) error {
	if w == nil {
		return g.evolve(ctx, t, nil, dev, true)
	}
	return w.Run(func(r *mpisim.Rank) error {
		return g.evolve(ctx, t, r, dev, r.ID() == 0)
	})
}

// EvolveToComm advances the gas to time t as one rank of a gang of worker
// processes (the same slab/exchange schedule as EvolveToParallel, but the
// exchanges cross the gang's peer links and the compute is accounted on
// the communicator's bound clock). Every rank owns its own replicated Gas
// and publishes the result.
func (g *Gas) EvolveToComm(ctx context.Context, t float64, c mpisim.Comm, dev *vtime.Device) error {
	return g.evolve(ctx, t, c, dev, true)
}

// evolve is the shared driver. With c == nil it runs the whole domain
// serially; with a communicator it computes only the rank's slab and
// allgathers. All ranks execute identical step sequences, so the full
// arrays remain bitwise identical across ranks after each exchange;
// publish selects which callers write the canonical result back into g
// (the serial caller, World rank 0 — whose goroutine ranks share one Gas
// — and every gang rank, which each own their replica).
func (g *Gas) evolve(ctx context.Context, t float64, r mpisim.Comm, dev *vtime.Device, publish bool) error {
	n := len(g.mass)
	if n == 0 {
		return ErrNoGas
	}
	lo, hi := 0, n
	if r != nil {
		lo, hi = mpisim.CutRange(g.cutsFor(r.Size()), r.ID(), n, r.Size())
	}
	var load stdtime.Duration
	time := g.time
	steps := 0
	var flops float64

	st := newState(g, lo, hi, r != nil)
	pos, vel, u, acc, dudt := st.pos, st.vel, st.u, st.acc, st.dudt

	// Prime density and forces.
	f := st.density(lo, hi)
	if err := st.exchangeScalars(r, lo, hi); err != nil {
		return err
	}
	f += st.forces(lo, hi)
	if err := st.exchangeForces(r, lo, hi); err != nil {
		return err
	}
	account(r, dev, f)
	load += slabTime(r, dev, f)
	flops += f

	for time < t-1e-15 {
		// Serial runs poll for cancellation between steps. Ranks do not:
		// one rank bailing out of a collective would wedge the rest, and
		// worker-side services always evolve under Background anyway.
		if r == nil {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		dt := st.timestep(lo, hi)
		if r != nil {
			m, err := mpisim.AllreduceMax(r, []float64{-dt})
			if err != nil {
				return err
			}
			dt = -m[0]
		}
		if time+dt > t {
			dt = t - time
		}

		// KDK leapfrog: half kick + drift.
		for i := lo; i < hi; i++ {
			vel[i] = vel[i].Add(acc[i].Scale(dt / 2))
			u[i] = math.Max(u[i]+dudt[i]*dt/2, 1e-12)
			pos[i] = pos[i].Add(vel[i].Scale(dt))
		}
		if err := st.exchangeVectors(r, lo, hi); err != nil {
			return err
		}

		// New densities and forces at the drifted state.
		f = st.density(lo, hi)
		if err := st.exchangeScalars(r, lo, hi); err != nil {
			return err
		}
		f += st.forces(lo, hi)
		if err := st.exchangeForces(r, lo, hi); err != nil {
			return err
		}

		// Second half kick.
		for i := lo; i < hi; i++ {
			vel[i] = vel[i].Add(acc[i].Scale(dt / 2))
			u[i] = math.Max(u[i]+dudt[i]*dt/2, 1e-12)
		}
		if err := st.exchangeVectors(r, lo, hi); err != nil {
			return err
		}
		account(r, dev, f)
		load += slabTime(r, dev, f)
		flops += f
		time += dt
		steps++
	}

	// Publish per the caller's ownership rules (see the doc comment).
	if publish {
		copy(g.pos, pos)
		copy(g.vel, vel)
		copy(g.u, u)
		copy(g.h, st.h)
		copy(g.rho, st.rho)
		copy(g.prs, st.prs)
		copy(g.cs, st.cs)
		g.time = time
		g.steps += steps
		g.flops += flops * flopScale(r)
		g.loadCompute += load
	}
	return nil
}

// slabTime prices one rank's slab work for the rank_load accumulator
// (mirrors account's charge; zero when running serially).
func slabTime(r mpisim.Comm, dev *vtime.Device, flops float64) stdtime.Duration {
	if r == nil || dev == nil {
		return 0
	}
	return dev.Time(flops, dev.Cores)
}

// flopScale converts one rank's counted flops into the communicator total
// (every rank does ~1/size of the work; the publishing rank reports).
func flopScale(r mpisim.Comm) float64 {
	if r == nil {
		return 1
	}
	return float64(r.Size())
}

func account(r mpisim.Comm, dev *vtime.Device, flops float64) {
	if r != nil && dev != nil {
		mpisim.ComputeFlops(r, dev, flops, dev.Cores)
	}
}

// state bundles one evolve call's working slices for the physics loops.
type state struct {
	g        *Gas
	pos, vel []data.Vec3
	u, h     []float64
	rho, prs []float64
	cs       []float64
	acc      []data.Vec3
	dudt     []float64
	cells    cellList    // built by density, reused by forces
	gacc     []data.Vec3 // the slab's self-gravity
	gpot     []float64
	slab     []float64 // exchange buffers: this rank's packed rows,
	full     []float64 // and every rank's
}

// newState allocates everything one evolve call over the rows [lo,hi) needs
// — rank-local working copies (identical across ranks after exchanges), the
// cell list, the slab's self-gravity and, for a rank, the exchange buffers —
// once; it all dies with the call.
func newState(g *Gas, lo, hi int, exchange bool) *state {
	n := len(g.mass)
	st := &state{g: g,
		pos: append([]data.Vec3(nil), g.pos...), vel: append([]data.Vec3(nil), g.vel...),
		u: append([]float64(nil), g.u...), h: append([]float64(nil), g.h...),
		rho: make([]float64, n), prs: make([]float64, n), cs: make([]float64, n),
		acc: make([]data.Vec3, n), dudt: make([]float64, n),
		cells: newCellList(n)}
	if g.SelfGravity {
		st.gacc = make([]data.Vec3, hi-lo)
		st.gpot = make([]float64, hi-lo)
	}
	if exchange {
		st.slab = make([]float64, 7*(hi-lo))
		st.full = make([]float64, 7*n)
	}
	return st
}

// The two pair loops below walk each particle's 27 cells directly, keep
// their sums in locals and store once per particle, and take the square
// root only of candidates rejectAbove cannot rule out. The candidates, their
// order and every floating-point expression are those of the loops in
// oracle_test.go, which the results are held to bit for bit.

// density computes rho, P, cs and updates h for indices [lo,hi).
func (st *state) density(lo, hi int) float64 {
	g := st.g
	hmax := 0.0
	for _, hh := range st.h {
		if hh > hmax {
			hmax = hh
		}
	}
	cl := &st.cells
	cl.build(st.pos, 2*hmax)
	pos, mass := st.pos, g.mass
	var runs [27][]int32
	pairs := 0
	for i := lo; i < hi; i++ {
		var sum float64
		count := 0
		pix, piy, piz := pos[i][0], pos[i][1], pos[i][2]
		hh := st.h[i]
		support := 2 * hh
		far := rejectAbove(support)
		for _, run := range cl.around(cl.key(pos[i]), &runs) {
			for _, j := range run {
				pj := &pos[j]
				x, y, z := pj[0]-pix, pj[1]-piy, pj[2]-piz
				r2 := x*x + y*y + z*z
				if r2 > far {
					continue
				}
				if rij := math.Sqrt(r2); rij < support {
					sum += mass[j] * W(rij, hh)
					count++
				}
			}
		}
		pairs += count
		st.rho[i] = sum
		if st.rho[i] <= 0 {
			st.rho[i] = g.mass[i] * W(0, hh)
		}
		// Adaptive smoothing toward the target neighbor count.
		ratio := float64(g.NTarget) / math.Max(float64(count), 1)
		st.h[i] = clamp(hh*0.5*(1+math.Cbrt(ratio)), g.HMin, g.HMax)
		st.prs[i] = (g.Gamma - 1) * st.rho[i] * st.u[i]
		st.cs[i] = math.Sqrt(g.Gamma * st.prs[i] / st.rho[i])
	}
	return flopsPerDensityPair * float64(pairs)
}

// forces computes acc and dudt for indices [lo,hi): SPH pressure +
// viscosity, plus optional tree self-gravity.
func (st *state) forces(lo, hi int) float64 {
	g := st.g
	cl := &st.cells
	pos, vel, mass := st.pos, st.vel, g.mass
	h, rho, prs, cs := st.h, st.rho, st.prs, st.cs
	alpha, beta := g.Alpha, g.Beta
	var runs [27][]int32
	pairs := 0
	for i := lo; i < hi; i++ {
		var ax, ay, az, du float64
		pix, piy, piz := pos[i][0], pos[i][1], pos[i][2]
		vix, viy, viz := vel[i][0], vel[i][1], vel[i][2]
		rhoi, csi, hsml := rho[i], cs[i], h[i]
		pterm := prs[i] / (rhoi * rhoi)
		for _, run := range cl.around(cl.key(pos[i]), &runs) {
			for _, j := range run {
				if int(j) == i {
					continue
				}
				pj := &pos[j]
				x, y, z := pix-pj[0], piy-pj[1], piz-pj[2]
				r2 := x*x + y*y + z*z
				hm := 0.5 * (hsml + h[j])
				support := 2 * hm
				if r2 > rejectAbove(support) {
					continue
				}
				rij := math.Sqrt(r2)
				if rij >= support || rij == 0 {
					continue
				}
				vj := &vel[j]
				dvx, dvy, dvz := vix-vj[0], viy-vj[1], viz-vj[2]
				s := DW(rij, hm) / rij
				gx, gy, gz := s*x, s*y, s*z // gradW

				// Monaghan viscosity for approaching pairs.
				var visc float64
				vr := dvx*x + dvy*y + dvz*z
				if vr < 0 {
					mu := hm * vr / (rij*rij + 0.01*hm*hm)
					cm := 0.5 * (csi + cs[j])
					rm := 0.5 * (rhoi + rho[j])
					visc = (-alpha*cm*mu + beta*mu*mu) / rm
				}
				common := pterm + prs[j]/(rho[j]*rho[j]) + visc
				m := mass[j] * common
				ax -= m * gx
				ay -= m * gy
				az -= m * gz
				du += 0.5 * mass[j] * common * (dvx*gx + dvy*gy + dvz*gz)
				pairs++
			}
		}
		st.acc[i] = data.Vec3{ax, ay, az}
		st.dudt[i] = du
	}
	flops := flopsPerForcePair * float64(pairs)

	if g.SelfGravity && len(g.mass) > 1 {
		tr := tree.Build(g.mass, st.pos)
		flops += tr.Accel(st.pos[lo:hi], g.EpsGrav, g.Theta, st.gacc, st.gpot)
		for i := lo; i < hi; i++ {
			st.acc[i] = st.acc[i].Add(st.gacc[i-lo])
		}
	}
	return flops
}

// timestep returns the local CFL-limited step over [lo,hi).
func (st *state) timestep(lo, hi int) float64 {
	g := st.g
	dt := g.DtMax
	for i := lo; i < hi; i++ {
		denom := st.cs[i] + st.vel[i].Norm() + 1e-12
		if d := g.CFL * st.h[i] / denom; d < dt {
			dt = d
		}
		if an := st.acc[i].Norm(); an > 0 {
			if d := 0.3 * math.Sqrt(st.h[i]/an); d < dt {
				dt = d
			}
		}
	}
	if dt <= 0 || math.IsNaN(dt) {
		dt = 1e-8
	}
	return dt
}

func clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}

// Exchange helpers: allgather the rank's slab so every rank holds the full
// updated arrays. nil rank = serial no-op. Every rank must contribute the
// rows the others expect of it: a gather that comes to anything but n rows
// (a rank holding other cuts, a short message) is an error, not state.

// gather allgathers this rank's rows into dst and checks that every rank's
// together come to the whole of it.
func gather(r mpisim.Comm, what string, slab, dst []float64) error {
	full, err := mpisim.AllgatherFloats(r, slab, dst)
	if err != nil {
		return fmt.Errorf("sph: %s exchange: %w", what, err)
	}
	if len(full) != len(dst) {
		return fmt.Errorf("sph: %s exchange gathered %d values, want %d: ranks disagree on the slab cuts or a message was cut short",
			what, len(full), len(dst))
	}
	return nil
}

// exchangeScalars gathers rho, P, cs and h, each straight into its array.
func (st *state) exchangeScalars(r mpisim.Comm, lo, hi int) error {
	if r == nil {
		return nil
	}
	for _, a := range [...][]float64{st.rho, st.prs, st.cs, st.h} {
		if err := gather(r, "scalar", a[lo:hi], a); err != nil {
			return err
		}
	}
	return nil
}

func (st *state) exchangeVectors(r mpisim.Comm, lo, hi int) error {
	if r == nil {
		return nil
	}
	pos, vel, u := st.pos, st.vel, st.u
	slab := st.slab[:0]
	for i := lo; i < hi; i++ {
		slab = append(slab, pos[i][0], pos[i][1], pos[i][2], vel[i][0], vel[i][1], vel[i][2], u[i])
	}
	full := st.full[:7*len(pos)]
	if err := gather(r, "state", slab, full); err != nil {
		return err
	}
	for i := range pos {
		pos[i] = data.Vec3{full[i*7], full[i*7+1], full[i*7+2]}
		vel[i] = data.Vec3{full[i*7+3], full[i*7+4], full[i*7+5]}
		u[i] = full[i*7+6]
	}
	return nil
}

func (st *state) exchangeForces(r mpisim.Comm, lo, hi int) error {
	if r == nil {
		return nil
	}
	acc, dudt := st.acc, st.dudt
	slab := st.slab[:0]
	for i := lo; i < hi; i++ {
		slab = append(slab, acc[i][0], acc[i][1], acc[i][2], dudt[i])
	}
	full := st.full[:4*len(acc)]
	if err := gather(r, "force", slab, full); err != nil {
		return err
	}
	for i := range acc {
		acc[i] = data.Vec3{full[i*4], full[i*4+1], full[i*4+2]}
		dudt[i] = full[i*4+3]
	}
	return nil
}
