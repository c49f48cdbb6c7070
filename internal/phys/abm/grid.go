// Package abm is the agent-based kernel kind: a grid of agents whose
// scalar state evolves by a deterministic reaction–diffusion rule biased
// by an external potential (BioDynaMo-style agent populations, reduced to
// the columnar essentials). The package registers the "abm" kind with the
// kernel registry from its init — like internal/phys/analytic, it is
// externally linked: internal/core needs no edits to host it.
//
// The kind exists to prove the registry/gang/checkpoint stack generalizes
// beyond particle kernels: agents carry their own columnar layout (agent
// id in the state payload's key column, "agent_pos", "agent_state" and
// "agent_potential" columns — names internal/core has never heard of),
// the service shards by grid-row slabs as a gang (kernel.Shardable), and
// snapshots round-trip the full colony (kernel.Checkpointable).
package abm

import (
	"fmt"

	"jungle/internal/amuse/data"
	"jungle/internal/wire"
)

// Params are the colony's fixed dynamics parameters (the "setup" call).
type Params struct {
	W, H int     // grid extent: W agents per row, H rows
	D    float64 // diffusion coefficient between grid neighbors
	R    float64 // logistic reaction rate
	B    float64 // coupling strength to the external potential
	DT   float64 // model time per step
}

// Check validates the parameters.
func (p Params) Check() error {
	if p.W <= 0 || p.H <= 0 {
		return fmt.Errorf("abm: grid %dx%d is empty", p.W, p.H)
	}
	if p.DT <= 0 {
		return fmt.Errorf("abm: non-positive step DT=%v", p.DT)
	}
	return nil
}

// stepFlops is the per-agent cost of one update: the 5-point stencil,
// the logistic reaction and the potential bias.
const stepFlops = 12.0

// Grid is the colony state: one agent per grid cell, row-major. All
// updates read the previous generation and write the next, so every
// agent's update is independent — a gang rank computing rows [lo,hi)
// produces bit-identical values to a solo worker computing all rows.
type Grid struct {
	P   Params
	Key []uint64    // stable agent identifiers
	Pos []data.Vec3 // agent positions (cell centers; field-kernel targets)
	U   []float64   // agent state (the reacting, diffusing quantity)
	Phi []float64   // external potential sampled at each agent

	next  []float64 // next generation, written by StepRows
	time  float64
	steps int
}

// NewGrid builds an empty colony for the parameters.
func NewGrid(p Params) (*Grid, error) {
	if err := p.Check(); err != nil {
		return nil, err
	}
	n := p.W * p.H
	g := &Grid{
		P:    p,
		Key:  make([]uint64, n),
		Pos:  make([]data.Vec3, n),
		U:    make([]float64, n),
		Phi:  make([]float64, n),
		next: make([]float64, n),
	}
	for i := 0; i < n; i++ {
		g.Key[i] = uint64(i)
		g.Pos[i] = CellPos(p, i)
	}
	return g, nil
}

// CellPos returns the canonical position of agent i: its cell center,
// with the grid mapped onto [-1,1]² in the x/y plane (the coordinate
// frame field kernels are queried in).
func CellPos(p Params, i int) data.Vec3 {
	x, y := i%p.W, i/p.W
	return data.Vec3{
		-1 + (2*float64(x)+1)/float64(p.W),
		-1 + (2*float64(y)+1)/float64(p.H),
		0,
	}
}

// N returns the agent count.
func (g *Grid) N() int { return g.P.W * g.P.H }

// Time returns the model time.
func (g *Grid) Time() float64 { return g.time }

// Steps returns the completed step count.
func (g *Grid) Steps() int { return g.steps }

// RestoreClock rewinds the model clock (checkpoint restore).
func (g *Grid) RestoreClock(t float64, steps int) { g.time, g.steps = t, steps }

// StepRows computes the next generation for grid rows [lo,hi) into the
// internal next buffer and returns the flop count spent. Boundaries are
// zero-flux: a missing neighbor contributes the cell's own state. The
// update is
//
//	u' = u + DT·(D·∇²u + R·u·(1−u) − B·φ·u)
//
// — diffusion over the grid, logistic reaction, and decay proportional
// to the external potential (reaction–diffusion in a potential).
func (g *Grid) StepRows(lo, hi int) float64 {
	w, h := g.P.W, g.P.H
	d, r, b, dt := g.P.D, g.P.R, g.P.B, g.P.DT
	for y := lo; y < hi; y++ {
		row := y * w
		for x := 0; x < w; x++ {
			i := row + x
			u := g.U[i]
			up, down, left, right := u, u, u, u
			if y > 0 {
				up = g.U[i-w]
			}
			if y < h-1 {
				down = g.U[i+w]
			}
			if x > 0 {
				left = g.U[i-1]
			}
			if x < w-1 {
				right = g.U[i+1]
			}
			lap := up + down + left + right - 4*u
			g.next[i] = u + dt*(d*lap+r*u*(1-u)-b*g.Phi[i]*u)
		}
	}
	return stepFlops * float64((hi-lo)*w)
}

// NextRows exposes the freshly computed slab [lo,hi) of the next
// generation (gang ranks exchange these slabs before committing).
func (g *Grid) NextRows(lo, hi int) []float64 {
	return g.next[lo*g.P.W : hi*g.P.W]
}

// SpliceRows decodes a peer rank's slab of the next generation, as
// wire.AppendFloats wrote it, into rows [lo,hi).
func (g *Grid) SpliceRows(lo, hi int, part []byte) error {
	if len(part) != 8*(hi-lo)*g.P.W {
		return fmt.Errorf("abm: slab rows [%d,%d) want %d bytes, got %d", lo, hi, 8*(hi-lo)*g.P.W, len(part))
	}
	wire.DecodeFloats(g.next[lo*g.P.W:hi*g.P.W], part)
	return nil
}

// Commit swaps the completed next generation in and advances the model
// clock. Every rank of a gang commits the same assembled generation, so
// replicas stay bitwise identical.
func (g *Grid) Commit() {
	g.U, g.next = g.next, g.U
	g.time += g.P.DT
	g.steps++
}

// Step advances the whole colony one generation (the solo path) and
// returns the flop count spent.
func (g *Grid) Step() float64 {
	flops := g.StepRows(0, g.P.H)
	g.Commit()
	return flops
}

// TotalState returns the colony's summed agent state (the conserved-ish
// observable stats reports).
func (g *Grid) TotalState() float64 {
	var sum float64
	for _, u := range g.U {
		sum += u
	}
	return sum
}

// SlabRows returns the row range [lo,hi) rank owns in a gang of size
// ranks: contiguous near-equal slabs, remainder rows on the low ranks —
// every rank derives the same decomposition from (H, size) alone.
func SlabRows(h, size, rank int) (lo, hi int) {
	base, rem := h/size, h%size
	lo = rank*base + min(rank, rem)
	hi = lo + base
	if rank < rem {
		hi++
	}
	return lo, hi
}

// splitmix64 is the deterministic seed expander behind InitialState —
// fixed here rather than borrowed from math/rand so the initial colony
// for a seed can never drift with a toolchain change.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// InitialU returns the deterministic initial agent state for a seed:
// each agent draws its state in [0,1) from a splitmix64 stream keyed by
// (seed, agent id). Two colonies with the same dimensions and seed are
// bitwise identical.
func InitialU(p Params, seed int64) []float64 {
	n := p.W * p.H
	u := make([]float64, n)
	for i := 0; i < n; i++ {
		bits := splitmix64(uint64(seed)*0x100000001b3 + uint64(i))
		u[i] = float64(bits>>11) / (1 << 53)
	}
	return u
}
