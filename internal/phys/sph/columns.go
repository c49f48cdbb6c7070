package sph

// Columnar accessors: the worker-side half of the batched state protocol
// for the SPH model (set_state decodes straight into the columns).

// InternalEnergies exposes the specific internal energy column.
func (g *Gas) InternalEnergies() []float64 { return g.u }

// SmoothingLens exposes the smoothing length column.
func (g *Gas) SmoothingLens() []float64 { return g.h }

// Densities exposes the density column (valid after the first step).
func (g *Gas) Densities() []float64 { return g.rho }
