package sph

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"
	stdtime "time"

	"jungle/internal/amuse/data"
	"jungle/internal/core/kernel"
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

	// cuts are the slab boundaries a gang's ranks agreed on (nil =
	// uniform); SetGang puts a (re)wired rank back on the uniform ones, and
	// so does every load: cuts are for one particle count.
	cuts []int

	// gen numbers the positions and masses: every writer of either calls
	// invalidate, and the evolve that publishes new positions moves it on
	// to the generation its ranks kept their gravity at. kept is the
	// self-gravity each rank's last forces pass computed, which the next
	// evolve's priming pass takes instead of walking the same tree again.
	// World ranks share one Gas, so keptMu guards kept and keptHits, the
	// primes that took it.
	gen      uint64
	keptMu   sync.Mutex
	kept     []keptGravity
	keptHits int
}

// keptGravity is the self-gravity of the rows [lo,hi), with the flops
// tree.Accel counted for it, at generation gen, softening eps and opening
// angle theta: gravity is a function of exactly those.
type keptGravity struct {
	gen        uint64
	lo, hi     int
	eps, theta float64
	acc        []data.Vec3
	flops      float64
}

// takeGravity removes and returns the rows' kept self-gravity if it matches
// the gas as it is. The taker's later passes write over it, so an evolve
// that fails leaves nothing stale behind.
func (g *Gas) takeGravity(lo, hi int) (keptGravity, bool) {
	g.keptMu.Lock()
	defer g.keptMu.Unlock()
	for i, k := range g.kept {
		if k.gen == g.gen && k.lo == lo && k.hi == hi && k.eps == g.EpsGrav && k.theta == g.Theta {
			g.kept = slices.Delete(g.kept, i, i+1)
			g.keptHits++
			return k, true
		}
	}
	return keptGravity{}, false
}

// invalidate records a write of positions or masses: the generation moves
// on and everything kept goes, including rows kept by an evolve that never
// published, which would otherwise match the new generation.
func (g *Gas) invalidate() {
	g.keptMu.Lock()
	defer g.keptMu.Unlock()
	g.gen++
	g.kept = nil
}

// setCuts installs explicit slab boundaries for sharded evolution; nil
// restores the uniform decomposition. The SPH exchanges allgather
// variable-length rank slabs in rank order, so only the local row ranges
// change — results are unaffected.
func (g *Gas) setCuts(cuts []int, size int) error {
	if cuts == nil {
		g.cuts = nil
		return nil
	}
	if err := mpisim.ValidCuts(cuts, len(g.mass), size); err != nil {
		return fmt.Errorf("sph: cuts: %w", err)
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
	return g.load(kernel.ParticlesPayload{Mass: slices.Clone(p.Mass), Pos: slices.Clone(p.Pos), Vel: slices.Clone(p.Vel),
		U: slices.Clone(p.InternalEnergy), H: slices.Clone(p.SmoothingLen)})
}

// load takes an upload's columns as the gas's own: nothing else may hold
// them. It checks them all first, so a refused load changes nothing.
func (g *Gas) load(pl kernel.ParticlesPayload) error {
	if err := pl.Check(true); err != nil {
		return err
	}
	for i := range pl.Mass {
		if pl.U[i] <= 0 {
			return fmt.Errorf("sph: particle %d has non-positive internal energy", i)
		}
		if pl.H[i] <= 0 {
			return fmt.Errorf("sph: particle %d has non-positive smoothing length", i)
		}
	}
	n := len(pl.Mass)
	g.invalidate()
	g.cuts = nil
	g.mass, g.pos, g.vel, g.u, g.h = pl.Mass, pl.Pos, pl.Vel, pl.U, pl.H
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

// ResetFlops zeroes the counter and returns the prior value.
func (g *Gas) ResetFlops() float64 {
	f := g.flops
	g.flops = 0
	return f
}

// Positions exposes internal positions (read-only; for field evaluation).
func (g *Gas) Positions() []data.Vec3 { return g.pos }

// Velocities exposes internal velocities.
func (g *Gas) Velocities() []data.Vec3 { return g.vel }

// Masses exposes internal masses (read-only).
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
	return g.evolve(ctx, t, nil, nil)
}

// EvolveToParallel advances the gas to time t data-parallel over a
// multi-node worker's world: each rank computes a slab of the density and
// force loops, exchanges results via allgathers (recorded as "mpi" traffic)
// and accounts its share of the compute on its own clock against dev. The
// goroutine ranks share this one Gas and one state, in which each writes
// only its own rows, and rank 0 publishes the result. The hydro service and
// bench/jbench's probes call it (DESIGN.md § Sharded kernels).
func (g *Gas) EvolveToParallel(ctx context.Context, t float64, w *mpisim.World, dev *vtime.Device) error {
	if w == nil {
		return g.evolve(ctx, t, nil, dev)
	}
	st := newState(g, true)
	return w.Run(func(r *mpisim.Gang) error {
		return st.evolve(ctx, t, r, dev, r.ID() == 0)
	})
}

// EvolveToComm advances the gas to time t as one rank of a gang of worker
// processes (the same slab/exchange schedule as EvolveToParallel, on the
// gang's bound clock). Every rank owns its own replicated Gas and publishes
// the result. The ranks end it agreeing the cuts of the next evolve from
// this one's slab compute, which its last exchange carries
// (mpisim.Rebalance), and it returns the load they agreed them on.
func (g *Gas) EvolveToComm(ctx context.Context, t float64, c *mpisim.Gang, dev *vtime.Device) (mpisim.Load, error) {
	if err := g.evolve(ctx, t, c, dev); err != nil || c == nil {
		return mpisim.Load{}, err
	}
	var load mpisim.Load
	var err error
	g.cuts, load, err = mpisim.Rebalance(c, g.cutsFor(c.Size()), len(g.mass))
	return load, err
}

// evolve runs an evolve on a state of its own: serially with r == nil, or
// as one gang rank over a replica.
func (g *Gas) evolve(ctx context.Context, t float64, r *mpisim.Gang, dev *vtime.Device) error {
	return newState(g, false).evolve(ctx, t, r, dev, true)
}

// evolve is the shared driver: one rank's part of an evolve over st, or all
// of it with r == nil. A rank computes only its slab and allgathers. All
// ranks execute identical step sequences, so after each exchange every rank
// reads the same full arrays: the ones every rank of a World wrote its rows
// into, or a gang rank's replica, which the gathers fill. publish selects
// which callers write the result back into g (the serial caller, World rank
// 0 and every rank of a gang deployment, which each own their replica). A
// gang rank's last exchange carries its slab compute (mpisim.Gang.CarryLoad).
func (st *state) evolve(ctx context.Context, t float64, r *mpisim.Gang, dev *vtime.Device, publish bool) error {
	g := st.g
	n := len(g.mass)
	if n == 0 {
		return ErrNoGas
	}
	lo, hi := 0, n
	if r != nil {
		lo, hi = mpisim.CutRange(g.cutsFor(r.Size()), r.ID(), n, r.Size())
	}
	s := st.slab(lo, hi, r != nil)
	pos, vel, u, acc, dudt := st.pos, st.vel, st.u, s.acc, s.dudt
	var load stdtime.Duration
	time := g.time
	steps := 0
	var flops float64
	// carryIfLast arms the exchange that ends at model time end when it is
	// the evolve's last: the loop's own test, so every rank agrees.
	carryIfLast := func(end float64) {
		if r != nil && !st.shared && !(end < t-1e-15) {
			r.CarryLoad(load)
		}
	}

	// Prime density and forces.
	f := s.density()
	if err := s.exchangeScalars(r); err != nil {
		return err
	}
	f += s.forces()
	load += slabTime(r, dev, f)
	carryIfLast(time)
	if err := s.exchangeForces(r); err != nil {
		return err
	}
	account(r, dev, f)
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
		dt := s.timestep()
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
			vel[i] = vel[i].Add(acc[i-lo].Scale(dt / 2))
			u[i] = math.Max(u[i]+dudt[i-lo]*dt/2, 1e-12)
			pos[i] = pos[i].Add(vel[i].Scale(dt))
		}
		if err := s.exchangeVectors(r); err != nil {
			return err
		}

		// New densities and forces at the drifted state.
		f = s.density()
		if err := s.exchangeScalars(r); err != nil {
			return err
		}
		f += s.forces()
		if err := s.exchangeForces(r); err != nil {
			return err
		}

		// Second half kick.
		for i := lo; i < hi; i++ {
			vel[i] = vel[i].Add(acc[i-lo].Scale(dt / 2))
			u[i] = math.Max(u[i]+dudt[i-lo]*dt/2, 1e-12)
		}
		load += slabTime(r, dev, f)
		carryIfLast(time + dt)
		if err := s.exchangeVectors(r); err != nil {
			return err
		}
		account(r, dev, f)
		flops += f
		time += dt
		steps++
	}

	// Keep the last pass's gravity, at the positions published below, and
	// drop what was kept at others: one evolve's ranks keep disjoint rows.
	if g.SelfGravity && n > 1 {
		g.keptMu.Lock()
		g.kept = append(slices.DeleteFunc(g.kept, func(k keptGravity) bool { return k.gen != st.gen+1 }),
			keptGravity{st.gen + 1, lo, hi, g.EpsGrav, g.Theta, s.gacc, s.gflops})
		g.keptMu.Unlock()
	}
	// Publish per the caller's ownership rules (see the doc comment).
	if publish {
		g.gen = st.gen + 1
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
	}
	return nil
}

// slabTime prices one rank's slab work for the load its gang balances on
// (mirrors account's charge; zero when running serially).
func slabTime(r *mpisim.Gang, dev *vtime.Device, flops float64) stdtime.Duration {
	if r == nil || dev == nil {
		return 0
	}
	return dev.Time(flops, dev.Cores)
}

// flopScale converts one rank's counted flops into the communicator total
// (every rank does ~1/size of the work; the publishing rank reports).
func flopScale(r *mpisim.Gang) float64 {
	if r == nil {
		return 1
	}
	return float64(r.Size())
}

func account(r *mpisim.Gang, dev *vtime.Device, flops float64) {
	if r != nil && dev != nil {
		mpisim.ComputeFlops(r, dev, flops, dev.Cores)
	}
}

// testBuilt, when a test set it, is told of each structure a pass builds.
var testBuilt func(what string)

func built(what string) {
	if testBuilt != nil {
		testBuilt(what)
	}
}

// state is one evolve's working set: the full arrays every rank of the
// evolve reads, and the structures a pass builds over them once for all of
// its ranks — a serial run's or a gang rank's alone, every rank's of a
// World (DESIGN.md § Hot loops, "One pass for a World's ranks"). A rank
// writes only the rows of its slab into the arrays.
type state struct {
	g        *Gas
	pos, vel []data.Vec3
	u, h     []float64
	rho, prs []float64
	cs       []float64
	gen      uint64 // the gas's generation when the call began
	shared   bool   // its ranks are a World's: gathers only check lengths

	mu        sync.Mutex
	cellsPass int         // the density pass the cell list and the search were built for,
	treePass  int         // and the forces pass the octree was
	cells     cellList    // built by density, reused by forces
	index     searchIndex // density's, built with the cell list
	tree      *tree.Tree
}

// newState copies the gas into the working arrays of one evolve, and
// allocates the cell list and the search index, all once; it all dies with
// the call. The scalars share one allocation, as do positions and
// velocities.
func newState(g *Gas, shared bool) *state {
	n := len(g.mass)
	vecs := make([]data.Vec3, 2*n)
	scalars := make([]float64, 5*n)
	col := func(k int) []float64 { return scalars[k*n : (k+1)*n : (k+1)*n] }
	st := &state{g: g, gen: g.gen, shared: shared,
		pos: vecs[:n:n], vel: vecs[n:],
		u: col(0), h: col(1), rho: col(2), prs: col(3), cs: col(4),
		cells: newCellList(n), index: newSearchIndex(n)}
	copy(st.pos, g.pos)
	copy(st.vel, g.vel)
	copy(st.u, g.u)
	copy(st.h, g.h)
	return st
}

// slab is one rank's view of a state: its rows [lo,hi), what it computes
// for them alone — forces and self-gravity, indexed from lo — and its
// scratch.
type slab struct {
	*state
	lo, hi int
	pass   int // density passes begun
	search search
	acc    []data.Vec3
	dudt   []float64
	gacc   []data.Vec3 // the slab's self-gravity,
	gflops float64     // the flops it cost,
	primed bool        // and whether it is already at st.pos
	pack   []float64   // exchange buffers: this rank's packed rows,
	full   []float64   // and, on a state of its own, every rank's
}

// slab makes the rank's view of the rows [lo,hi), taking their kept
// self-gravity from the gas when it is still valid; a rank that exchanges
// gets the buffers.
func (st *state) slab(lo, hi int, exchange bool) *slab {
	g, n := st.g, len(st.pos)
	s := &slab{state: st, lo: lo, hi: hi, search: newSearch(&st.index, n),
		acc: make([]data.Vec3, hi-lo), dudt: make([]float64, hi-lo)}
	if g.SelfGravity {
		if k, ok := g.takeGravity(lo, hi); ok {
			s.gacc, s.gflops, s.primed = k.acc, k.flops, true
		} else {
			s.gacc = make([]data.Vec3, hi-lo)
		}
	}
	if exchange {
		s.pack = make([]float64, 7*(hi-lo))
		if !st.shared {
			s.full = make([]float64, 7*n)
		}
	}
	return s
}

// buildCells builds the cell list and the search index for density pass
// pass, unless a rank sharing the state already has. The search picks its
// levels from the octaves of the rows whose smoothing lengths h lists.
func (st *state) buildCells(pass int, h []float64, out []int32) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.cellsPass == pass {
		return
	}
	st.cellsPass = pass
	hmax := 0.0
	for _, hh := range st.h {
		if hh > hmax {
			hmax = hh
		}
	}
	st.cells.build(st.pos, 2*hmax)
	built("cells")
	st.index.reset(&st.cells, h, out)
}

// octree returns the self-gravity tree of forces pass pass, which the first
// rank that needs it builds.
func (st *state) octree(pass int) *tree.Tree {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.treePass != pass {
		st.tree, st.treePass = tree.Build(st.g.mass, st.pos), pass
		built("octree")
	}
	return st.tree
}

// The two pair loops below walk each particle's candidates directly (the
// density loop the search's, in the 27 cells' order, where it finds them),
// keep their sums in locals and store once per particle, and take the square
// root only of candidates rejectAbove cannot rule out. The neighbours, their
// order and every floating-point expression are those of the loops in
// oracle_test.go, which the results are held to bit for bit.

// density begins a pass: it computes rho, P, cs and updates h for the
// slab's rows.
func (s *slab) density() float64 {
	g := s.g
	s.pass++
	pos, mass, h := s.pos, g.mass, s.h
	if s.shared {
		s.buildCells(s.pass, h, s.search.out) // the levels every rank's rows need
	} else {
		s.buildCells(s.pass, h[s.lo:s.hi], s.search.out)
	}
	var runs [27][]int32
	pairs := 0
	for i := s.lo; i < s.hi; i++ {
		var sum float64
		count := 0
		pix, piy, piz := pos[i][0], pos[i][1], pos[i][2]
		hh := h[i]
		support := 2 * hh
		far := rejectAbove(support)
		for _, run := range s.densityRuns(i, support, far, &runs) {
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
		s.rho[i] = sum
		if s.rho[i] <= 0 {
			s.rho[i] = g.mass[i] * W(0, hh)
		}
		// Adaptive smoothing toward the target neighbor count.
		ratio := float64(g.NTarget) / math.Max(float64(count), 1)
		h[i] = clamp(hh*0.5*(1+math.Cbrt(ratio)), g.HMin, g.HMax)
		s.prs[i] = (g.Gamma - 1) * s.rho[i] * s.u[i]
		s.cs[i] = math.Sqrt(g.Gamma * s.prs[i] / s.rho[i])
	}
	return flopsPerDensityPair * float64(pairs)
}

// forces computes acc and dudt for the slab's rows: SPH pressure +
// viscosity, plus optional tree self-gravity, which a primed slab already
// holds.
func (s *slab) forces() float64 {
	g, lo := s.g, s.lo
	cl := &s.cells
	pos, vel, mass := s.pos, s.vel, g.mass
	h, rho, prs, cs := s.h, s.rho, s.prs, s.cs
	alpha, beta := g.Alpha, g.Beta
	var runs [27][]int32
	pairs := 0
	for i := lo; i < s.hi; i++ {
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
				dw := DW(rij, hm) / rij
				gx, gy, gz := dw*x, dw*y, dw*z // gradW

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
		s.acc[i-lo] = data.Vec3{ax, ay, az}
		s.dudt[i-lo] = du
	}
	flops := flopsPerForcePair * float64(pairs)

	if g.SelfGravity && len(g.mass) > 1 {
		if !s.primed {
			s.gflops = s.octree(s.pass).Accel(pos[lo:s.hi], g.EpsGrav, g.Theta, s.gacc, nil)
		}
		s.primed = false
		flops += s.gflops
		for i := range s.acc {
			s.acc[i] = s.acc[i].Add(s.gacc[i])
		}
	}
	return flops
}

// densityRuns returns row i's density candidates: the search's, or else
// the cell list's 27 cells.
func (s *slab) densityRuns(i int, support, far float64, runs *[27][]int32) [][]int32 {
	cl, p := &s.cells, s.pos[i]
	if lv := s.search.levelFor(octave(s.h[i])); lv != nil {
		if found, ok := s.search.mark(lv, p, support, far, cl, runs); ok {
			return found
		}
	}
	return cl.around(cl.key(p), runs)
}

// timestep returns the CFL-limited step over the slab's rows.
func (s *slab) timestep() float64 {
	g := s.g
	dt := g.DtMax
	for i := s.lo; i < s.hi; i++ {
		denom := s.cs[i] + s.vel[i].Norm() + 1e-12
		if d := g.CFL * s.h[i] / denom; d < dt {
			dt = d
		}
		if an := s.acc[i-s.lo].Norm(); an > 0 {
			if d := 0.3 * math.Sqrt(s.h[i]/an); d < dt {
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

// Exchange helpers: allgather the rank's slab so every rank can read the
// full updated arrays. nil rank = serial no-op. On a state of its own a
// rank decodes the gather into its replica; the ranks of a World wrote
// their rows into the arrays they share, so the gather, which still prices
// every message, is only counted. Every rank must contribute the rows the
// others expect of it: a gather that comes to anything but n rows (a rank
// holding other cuts, a short message) is an error, not state.

// gather allgathers this rank's rows, into dst when it is not nil, and
// checks that every rank's together come to want values.
func gather(r *mpisim.Gang, what string, slab, dst []float64, want int) error {
	got, err := mpisim.AllgatherFloats(r, slab, dst)
	if err != nil {
		return fmt.Errorf("sph: %s exchange: %w", what, err)
	}
	if got != want {
		return fmt.Errorf("sph: %s exchange gathered %d values, want %d: ranks disagree on the slab cuts or a message was cut short",
			what, got, want)
	}
	return nil
}

// exchangeScalars gathers rho, P, cs and h, each straight into its array
// when the state is the rank's own.
func (s *slab) exchangeScalars(r *mpisim.Gang) error {
	if r == nil {
		return nil
	}
	for _, a := range [...][]float64{s.rho, s.prs, s.cs, s.h} {
		dst := a
		if s.shared {
			dst = nil
		}
		if err := gather(r, "scalar", a[s.lo:s.hi], dst, len(a)); err != nil {
			return err
		}
	}
	return nil
}

func (s *slab) exchangeVectors(r *mpisim.Gang) error {
	if r == nil {
		return nil
	}
	pos, vel, u := s.pos, s.vel, s.u
	pack := s.pack[:0]
	for i := s.lo; i < s.hi; i++ {
		pack = append(pack, pos[i][0], pos[i][1], pos[i][2], vel[i][0], vel[i][1], vel[i][2], u[i])
	}
	if err := gather(r, "state", pack, s.full, 7*len(pos)); err != nil || s.shared {
		return err
	}
	full := s.full
	for i := range pos {
		pos[i] = data.Vec3{full[i*7], full[i*7+1], full[i*7+2]}
		vel[i] = data.Vec3{full[i*7+3], full[i*7+4], full[i*7+5]}
		u[i] = full[i*7+6]
	}
	return nil
}

// exchangeForces prices the forces' exchange: no rank reads another's acc
// or dudt, so every rank only counts the gather.
func (s *slab) exchangeForces(r *mpisim.Gang) error {
	if r == nil {
		return nil
	}
	pack := s.pack[:0]
	for i, a := range s.acc {
		pack = append(pack, a[0], a[1], a[2], s.dudt[i])
	}
	return gather(r, "force", pack, nil, 4*len(s.pos))
}
