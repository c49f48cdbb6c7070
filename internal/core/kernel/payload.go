package kernel

import (
	"jungle/internal/amuse/data"
	"jungle/internal/wire"
)

// Typed argument/result payloads. One struct per method keeps the wire
// format explicit. These travel inside Request.Args / Response.Result in
// internal/wire's positional struct codec: exported fields in declaration
// order, floats in their trimmed form. A payload struct may therefore only
// grow fields at its end (see the codec's append-only rule). The bulk
// state path (StatePayload) has its own fixed-width column codec because
// it dominates coupled-step traffic.

// Encode marshals a payload value — a struct or a pointer to one — into a
// fresh slice (it panics on a type with no wire form: pointers, maps,
// interfaces).
func Encode(v any) []byte { return wire.Marshal(v) }

// Decode unmarshals a payload produced by Encode into the struct v points
// to. Input that ends early at a field boundary leaves the remaining
// fields zero.
func Decode(b []byte, v any) error { return wire.Unmarshal(b, v) }

type SetupGravityArgs struct {
	Kernel string // "phigrape-cpu" | "phigrape-gpu"
	Eps    float64
	Eta    float64
}

type SetupHydroArgs struct {
	SelfGravity bool
	EpsGrav     float64
	NTarget     int
}

type SetupStellarArgs struct {
	MassesMSun   []float64
	MyrPerTime   float64
	NBodyPerMSun float64
}

type SetupFieldArgs struct {
	Kernel string // "octgrav" | "fi"
	Theta  float64
	Eps    float64
}

type ParticlesPayload struct {
	Mass []float64
	Pos  []data.Vec3
	Vel  []data.Vec3
	U    []float64 // internal energy (hydro only)
	H    []float64 // smoothing length (hydro only)
	Key  []uint64
}

// ParticlesToPayload returns the payload that uploads p. It aliases p's
// columns: encode it before p changes.
func ParticlesToPayload(p *data.Particles) ParticlesPayload {
	return ParticlesPayload{Mass: p.Mass, Pos: p.Pos, Vel: p.Vel, U: p.InternalEnergy, H: p.SmoothingLen, Key: p.Key}
}

func PayloadToParticles(pl ParticlesPayload) *data.Particles {
	p := data.NewParticles(len(pl.Mass))
	copy(p.Mass, pl.Mass)
	copy(p.Pos, pl.Pos)
	copy(p.Vel, pl.Vel)
	if len(pl.U) == len(pl.Mass) {
		copy(p.InternalEnergy, pl.U)
	}
	if len(pl.H) == len(pl.Mass) {
		copy(p.SmoothingLen, pl.H)
	}
	if len(pl.Key) == len(pl.Mass) {
		copy(p.Key, pl.Key)
	}
	return p
}

type EvolveArgs struct {
	T float64
}

type KickArgs struct {
	DV []data.Vec3
}

type SetMassArgs struct {
	Index int
	Mass  float64
}

type InjectArgs struct {
	Center data.Vec3
	Radius float64
	E      float64
}

type FieldAtArgs struct {
	SrcMass []float64
	SrcPos  []data.Vec3
	Targets []data.Vec3
}

type FieldAtResult struct {
	Acc []data.Vec3
	Pot []float64
}

// FieldStagedArgs evaluates the field of the sources staged under Slot at
// the targets staged under the same slot (both delivered over the direct
// data plane via stage_sources/stage_targets), then frees the slot.
type FieldStagedArgs struct {
	Slot uint64
}

type VecResult struct {
	V []data.Vec3
}

type FloatsResult struct {
	X []float64
}

type EnergiesResult struct {
	Kinetic   float64
	Potential float64
	Thermal   float64
}

type StellarEvolveResult struct {
	Events []StellarEventPayload
}

type StellarEventPayload struct {
	Index    int
	MassLoss float64
	SN       bool
}

type StatsResult struct {
	N     int
	Time  float64
	Steps int
	Flops float64
}

type Empty struct{}
