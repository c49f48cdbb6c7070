package kernel

import (
	"fmt"

	"jungle/internal/amuse/data"
	"jungle/internal/wire"
)

// Typed argument/result payloads. One struct per method keeps the wire
// format explicit. These travel inside Request.Args / Response.Result in
// internal/wire's positional struct codec: exported fields in declaration
// order, floats and keys in their trimmed form. A payload struct may
// therefore only grow fields at its end (see the codec's append-only rule).
// The bulk state path (StatePayload) has its own fixed-width column codec
// because it dominates coupled-step traffic.

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

// ParticlesPayload is a set_particles upload. The worker keeps the columns
// it decodes: Decode allocated them, and nothing else holds them.
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

// Check refuses an upload whose columns are not one particle set: a Pos or
// Vel whose length differs from Mass's, a U, H or Key present with another
// length, or, for a kind that needs them (hydro), a missing U or H. A frame
// cut at a column's end decodes as one whose last columns are missing (the
// codec's append-only rule). A kind checks before its first write.
func (pl *ParticlesPayload) Check(needUH bool) error {
	for i, name := range [...]string{"Pos", "Vel", "U", "H", "Key"} {
		n := [...]int{len(pl.Pos), len(pl.Vel), len(pl.U), len(pl.H), len(pl.Key)}[i]
		optional := name == "Key" || !needUH && (name == "U" || name == "H")
		if n != len(pl.Mass) && !(optional && n == 0) {
			return fmt.Errorf("kernel: particle set column %s has %d values for %d masses", name, n, len(pl.Mass))
		}
	}
	return nil
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
